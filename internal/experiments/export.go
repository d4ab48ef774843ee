package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"time"
)

// WriteCSV serializes a slice of experiment row structs as CSV with a
// header derived from the struct's field names. Supported field kinds:
// string, ints, floats, bools, time.Duration (seconds), and fmt.Stringer
// values (rendered via String). The figure drivers all return such slices,
// so any figure can be exported for external plotting.
func WriteCSV(w io.Writer, rows interface{}) error {
	names, table, err := rowCells("WriteCSV", rows)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(names); err != nil {
		return err
	}
	rec := make([]string, len(names))
	for _, cells := range table {
		for i, c := range cells {
			switch c := c.(type) {
			case seconds:
				rec[i] = strconv.FormatFloat(float64(c), 'f', 3, 64)
			case float64:
				rec[i] = strconv.FormatFloat(c, 'f', 6, 64)
			default:
				rec[i] = fmt.Sprint(c)
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteJSON serializes a slice of experiment row structs as an indented
// JSON array of objects keyed by field name. It follows the same cell
// conventions as WriteCSV — time.Duration renders as seconds, fmt.Stringer
// values via String — but keeps numbers numeric so downstream tooling can
// consume the figures without re-parsing.
func WriteJSON(w io.Writer, rows interface{}) error {
	names, table, err := rowCells("WriteJSON", rows)
	if err != nil {
		return err
	}
	out := make([]map[string]interface{}, len(table))
	for r, cells := range table {
		obj := make(map[string]interface{}, len(names))
		for i, c := range cells {
			obj[names[i]] = c
		}
		out[r] = obj
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// seconds is a time.Duration cell in seconds. CSV prints it to the
// millisecond; JSON encodes it as a plain number.
type seconds float64

// rowCells walks a slice of row structs for WriteCSV and WriteJSON (named
// by fn in errors): it returns the field names and, per row, one cell per
// field — a string (from a string or fmt.Stringer field), int64, uint64,
// float64, bool or seconds value.
func rowCells(fn string, rows interface{}) (names []string, table [][]interface{}, err error) {
	v := reflect.ValueOf(rows)
	if v.Kind() != reflect.Slice {
		return nil, nil, fmt.Errorf("experiments: %s wants a slice, got %T", fn, rows)
	}
	if v.Len() == 0 {
		return nil, nil, fmt.Errorf("experiments: no rows to write")
	}
	elemT := v.Index(0).Type()
	if elemT.Kind() != reflect.Struct {
		return nil, nil, fmt.Errorf("experiments: %s wants a slice of structs, got %s", fn, elemT)
	}
	names = make([]string, elemT.NumField())
	for i := range names {
		names[i] = elemT.Field(i).Name
	}
	table = make([][]interface{}, v.Len())
	for r := range table {
		row := v.Index(r)
		table[r] = make([]interface{}, len(names))
		for i := range names {
			c, err := exportCell(row.Field(i))
			if err != nil {
				return nil, nil, fmt.Errorf("experiments: row %d field %s: %w", r, names[i], err)
			}
			table[r][i] = c
		}
	}
	return names, table, nil
}

// exportCell converts one struct field to its export value.
func exportCell(f reflect.Value) (interface{}, error) {
	// Durations render as seconds for plotting.
	if f.Type() == reflect.TypeOf(time.Duration(0)) {
		return seconds(time.Duration(f.Int()).Seconds()), nil
	}
	if f.CanInterface() {
		if s, ok := f.Interface().(fmt.Stringer); ok {
			return s.String(), nil
		}
	}
	switch f.Kind() {
	case reflect.String:
		return f.String(), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return f.Int(), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return f.Uint(), nil
	case reflect.Float32, reflect.Float64:
		return f.Float(), nil
	case reflect.Bool:
		return f.Bool(), nil
	default:
		return nil, fmt.Errorf("unsupported field kind %s", f.Kind())
	}
}

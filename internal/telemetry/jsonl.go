package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// maxLineBytes bounds one JSONL line; trace and journal events are small,
// so a longer line is corruption, not data.
const maxLineBytes = 1 << 20

// ParseError reports a rejected JSONL input line. Line is 1-based.
type ParseError struct {
	Line int
	Err  error
}

func (e *ParseError) Error() string { return fmt.Sprintf("line %d: %v", e.Line, e.Err) }

func (e *ParseError) Unwrap() error { return e.Err }

// ReadJSONL parses a strict JSONL stream, one T per line. Empty lines,
// malformed JSON, unknown fields, trailing data after the object, and
// values that validate rejects all fail with a *ParseError carrying the
// offending line number.
func ReadJSONL[T any](r io.Reader, validate func(T) error) ([]T, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	var out []T
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			return nil, &ParseError{Line: line, Err: fmt.Errorf("empty line")}
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var v T
		if err := dec.Decode(&v); err != nil {
			return nil, &ParseError{Line: line, Err: fmt.Errorf("malformed event: %w", err)}
		}
		if dec.More() {
			return nil, &ParseError{Line: line, Err: fmt.Errorf("trailing data after event object")}
		}
		if err := validate(v); err != nil {
			return nil, &ParseError{Line: line, Err: err}
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, &ParseError{Line: line + 1, Err: err}
	}
	return out, nil
}

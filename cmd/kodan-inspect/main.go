// kodan-inspect analyzes the two artifacts the instrumented CLIs export:
// span traces (kodan-sim/kodan-bench/kodan-transform -trace, kodan-server
// -trace) and mission event journals (kodan-sim -events).
//
// For traces it prints per-phase summaries, the critical path, folded
// stacks for flamegraph tooling, and two-trace diffs with per-phase
// attribution. For journals it prints per-satellite/per-type summaries,
// ASCII mission timelines with fault and contact overlays, the findings of
// a rule engine that flags mission-level anomalies, and two-journal diffs
// with per-cell attribution.
//
// Usage:
//
//	kodan-inspect trace summary [-top N] [-shape] FILE
//	kodan-inspect trace critical FILE
//	kodan-inspect trace folded FILE
//	kodan-inspect trace diff FILE_A FILE_B
//	kodan-inspect events summary FILE
//	kodan-inspect events timeline [-width N] FILE
//	kodan-inspect events anomalies [-starvation-frac X] [-gap-factor X]
//	                               [-gap-min DUR] [-corr-frac X] [-min-fault DUR] FILE
//	kodan-inspect events diff FILE_A FILE_B
//
// All output is byte-deterministic for the same input file(s). `trace
// summary -shape` prints only phase names and span counts — the part of a
// trace that is invariant across worker counts and machine speed — so CI
// can compare runs bit-for-bit. Journals are canonically ordered and every
// journal renderer is a pure function of the event set.
//
// `events anomalies` exits 0 when the journal is clean, 2 when at least
// one rule fired, and 1 on error — so CI can assert that a seeded-fault
// run trips the engine while a fault-free run does not. Every other
// subcommand exits 0 on success and 1 on error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"kodan/internal/telemetry/analyze"
	"kodan/internal/telemetry/events"
)

const usage = `usage:
  kodan-inspect trace summary [-top N] [-shape] FILE   per-phase self/total time (or shape only)
  kodan-inspect trace critical FILE                    chronological critical path
  kodan-inspect trace folded FILE                      folded stacks (flamegraph/speedscope)
  kodan-inspect trace diff FILE_A FILE_B               per-phase delta with attribution
  kodan-inspect events summary FILE                    per-type and per-satellite event counts
  kodan-inspect events timeline [-width N] FILE        ASCII mission timeline with fault/contact overlays
  kodan-inspect events anomalies [flags] FILE          rule engine: starvation, saturation, gaps, fault correlation
                                                       (exit 0 clean, 2 when findings exist)
  kodan-inspect events diff FILE_A FILE_B              per-(type, scope) event-count delta with attribution
`

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kodan-inspect: %v\n", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// run dispatches to the trace or events command and returns the process
// exit code.
func run(args []string, stdout io.Writer) (int, error) {
	if len(args) == 0 {
		return 1, fmt.Errorf("missing subcommand\n%s", usage)
	}
	switch args[0] {
	case "trace":
		if err := runTrace(args[1:], stdout); err != nil {
			return 1, err
		}
		return 0, nil
	case "events":
		return runEvents(args[1:], stdout)
	case "-h", "-help", "--help", "help":
		_, err := io.WriteString(stdout, usage)
		return 0, err
	default:
		return 1, fmt.Errorf("unknown subcommand %q\n%s", args[0], usage)
	}
}

// runTrace executes one trace subcommand.
func runTrace(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand\n%s", usage)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "summary":
		fs := flag.NewFlagSet("summary", flag.ContinueOnError)
		top := fs.Int("top", 10, "how many slowest spans to list")
		shape := fs.Bool("shape", false, "print only phase names and span counts (worker-count invariant)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		t, err := parseTrace(fs.Args(), cmd)
		if err != nil {
			return err
		}
		if *shape {
			_, err = io.WriteString(stdout, t.RenderShape())
		} else {
			_, err = io.WriteString(stdout, t.RenderSummary(*top))
		}
		return err
	case "critical":
		t, err := parseTrace(rest, cmd)
		if err != nil {
			return err
		}
		_, err = io.WriteString(stdout, t.RenderCritical())
		return err
	case "folded":
		t, err := parseTrace(rest, cmd)
		if err != nil {
			return err
		}
		return analyze.WriteFolded(stdout, t)
	case "diff":
		if len(rest) != 2 {
			return fmt.Errorf("diff wants exactly two trace files, got %d\n%s", len(rest), usage)
		}
		a, err := analyze.ParseFile(rest[0])
		if err != nil {
			return err
		}
		b, err := analyze.ParseFile(rest[1])
		if err != nil {
			return err
		}
		_, err = io.WriteString(stdout, analyze.Compare(a, b).Render())
		return err
	case "-h", "-help", "--help", "help":
		_, err := io.WriteString(stdout, usage)
		return err
	default:
		return fmt.Errorf("unknown subcommand %q\n%s", cmd, usage)
	}
}

func parseTrace(args []string, cmd string) (*analyze.Trace, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("%s wants exactly one trace file, got %d\n%s", cmd, len(args), usage)
	}
	return analyze.ParseFile(args[0])
}

// runEvents executes one events subcommand and returns the process exit
// code. Only anomalies uses a non-zero success code (2 = findings).
func runEvents(args []string, stdout io.Writer) (int, error) {
	if len(args) == 0 {
		return 1, fmt.Errorf("missing subcommand\n%s", usage)
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "summary":
		evs, err := readJournal(rest, cmd)
		if err != nil {
			return 1, err
		}
		_, err = io.WriteString(stdout, events.Summarize(evs).Render())
		return 0, err
	case "timeline":
		fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
		width := fs.Int("width", events.DefaultTimelineWidth, "timeline width in columns")
		if err := fs.Parse(rest); err != nil {
			return 1, err
		}
		evs, err := readJournal(fs.Args(), cmd)
		if err != nil {
			return 1, err
		}
		_, err = io.WriteString(stdout, events.RenderTimeline(evs, *width))
		return 0, err
	case "anomalies":
		fs := flag.NewFlagSet("anomalies", flag.ContinueOnError)
		def := events.DefaultThresholds()
		starve := fs.Float64("starvation-frac", def.StarvationGapFrac,
			"flag a satellite whose longest grant-free stretch exceeds this fraction of the journal")
		gapFactor := fs.Float64("gap-factor", def.CaptureGapFactor,
			"flag a capture gap above this multiple of the satellite's median gap")
		gapMin := fs.Duration("gap-min", def.CaptureGapMin,
			"capture-gap floor: gaps shorter than this never flag")
		corr := fs.Float64("corr-frac", def.CorrelationFrac,
			"flag throughput inside fault windows below this fraction of the outside rate")
		minFault := fs.Duration("min-fault", def.MinFaultDur,
			"least total fault exposure worth correlating")
		if err := fs.Parse(rest); err != nil {
			return 1, err
		}
		evs, err := readJournal(fs.Args(), cmd)
		if err != nil {
			return 1, err
		}
		th := events.Thresholds{
			StarvationGapFrac: *starve,
			CaptureGapFactor:  *gapFactor,
			CaptureGapMin:     *gapMin,
			CorrelationFrac:   *corr,
			MinFaultDur:       *minFault,
		}
		if err := validateThresholds(th); err != nil {
			return 1, err
		}
		findings := events.DetectAnomalies(evs, th)
		if _, err := io.WriteString(stdout, events.RenderAnomalies(findings)); err != nil {
			return 1, err
		}
		if len(findings) > 0 {
			return 2, nil
		}
		return 0, nil
	case "diff":
		if len(rest) != 2 {
			return 1, fmt.Errorf("diff wants exactly two journal files, got %d\n%s", len(rest), usage)
		}
		a, err := events.ReadFile(rest[0])
		if err != nil {
			return 1, err
		}
		b, err := events.ReadFile(rest[1])
		if err != nil {
			return 1, err
		}
		_, err = io.WriteString(stdout, events.CompareJournals(a, b).Render())
		return 0, err
	case "-h", "-help", "--help", "help":
		_, err := io.WriteString(stdout, usage)
		return 0, err
	default:
		return 1, fmt.Errorf("unknown subcommand %q\n%s", cmd, usage)
	}
}

// validateThresholds rejects tunings the rule engine cannot interpret.
func validateThresholds(th events.Thresholds) error {
	if th.StarvationGapFrac <= 0 || th.StarvationGapFrac > 1 {
		return fmt.Errorf("-starvation-frac must be in (0, 1], got %g", th.StarvationGapFrac)
	}
	if th.CaptureGapFactor < 1 {
		return fmt.Errorf("-gap-factor must be >= 1, got %g", th.CaptureGapFactor)
	}
	if th.CaptureGapMin < 0 {
		return fmt.Errorf("-gap-min must be >= 0, got %v", th.CaptureGapMin)
	}
	if th.CorrelationFrac <= 0 || th.CorrelationFrac > 1 {
		return fmt.Errorf("-corr-frac must be in (0, 1], got %g", th.CorrelationFrac)
	}
	if th.MinFaultDur < time.Second {
		return fmt.Errorf("-min-fault must be >= 1s, got %v", th.MinFaultDur)
	}
	return nil
}

func readJournal(args []string, cmd string) ([]events.Event, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("%s wants exactly one journal file, got %d\n%s", cmd, len(args), usage)
	}
	return events.ReadFile(args[0])
}

package harvest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"schematic/internal/emulator"
)

// TraceVersion is the current NDJSON trace format version. Readers
// reject anything newer; older versions would be migrated here.
const TraceVersion = 1

// Header is the first NDJSON line of a trace: format identification
// plus enough context to sanity-check a replay against a different
// configuration.
type Header struct {
	Kind     string  `json:"kind"` // always "harvest-trace"
	Version  int     `json:"v"`
	Schedule string  `json:"schedule,omitempty"` // Name() of the recorded schedule
	EB       float64 `json:"eb_nj,omitempty"`    // energy budget of the recorded run
}

// Record is one NDJSON event line. K "fail" records a power failure
// fired at a probe; K "sample" records a periodic energy-history
// snapshot (the capacitor level at a charge probe) and is ignored by
// replay.
type Record struct {
	K     string  `json:"k"`
	Point string  `json:"point,omitempty"` // fail: probe kind ("step", "charge", ...)
	N     int64   `json:"n"`               // fail: per-kind ordinal; sample: charge ordinal
	Step  int64   `json:"step,omitempty"`
	Cycle int64   `json:"cycle,omitempty"`
	Level float64 `json:"level_nj"`          // capacitor level at the probe
	Draw  float64 `json:"draw_nj,omitempty"` // fail at a charge: the refused draw
}

// Trace is a recorded power history: every power failure of the run, in
// probe order, plus optional capacitor-level samples.
type Trace struct {
	Header  Header
	Records []Record
}

// fails returns the replayable subset, preserving order.
func (t *Trace) fails() []Record {
	out := make([]Record, 0, len(t.Records))
	for _, r := range t.Records {
		if r.K == "fail" {
			out = append(out, r)
		}
	}
	return out
}

// Write emits the trace as versioned NDJSON: one header line, then one
// line per record.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	h := t.Header
	h.Kind = "harvest-trace"
	h.Version = TraceVersion
	if err := enc.Encode(h); err != nil {
		return err
	}
	for _, r := range t.Records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace parses a versioned NDJSON trace.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("harvest: empty trace")
	}
	var h Header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("harvest: bad trace header: %w", err)
	}
	if h.Kind != "harvest-trace" {
		return nil, fmt.Errorf("harvest: not a harvest trace (kind %q)", h.Kind)
	}
	if h.Version > TraceVersion {
		return nil, fmt.Errorf("harvest: trace version %d is newer than supported %d", h.Version, TraceVersion)
	}
	t := &Trace{Header: h}
	line := 1
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("harvest: trace line %d: %w", line, err)
		}
		switch rec.K {
		case "fail":
			if _, err := parsePoint(rec.Point); err != nil {
				return nil, fmt.Errorf("harvest: trace line %d: %w", line, err)
			}
		case "sample":
		default:
			return nil, fmt.Errorf("harvest: trace line %d: unknown record kind %q", line, rec.K)
		}
		t.Records = append(t.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return t, nil
}

// LoadTrace reads a trace file from disk.
func LoadTrace(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// parsePoint maps a trace point name to a PointKind. Unlike
// emulator.ParsePointKind it accepts "charge": recorded traces replay
// the built-in physics' own refusals, which user-authored injection
// specs may not schedule.
func parsePoint(s string) (emulator.PointKind, error) {
	for _, k := range []emulator.PointKind{
		emulator.PointStep, emulator.PointCharge,
		emulator.PointBeforeSave, emulator.PointMidSave, emulator.PointAfterSave,
	} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("harvest: unknown probe point %q", s)
}

// Recorder is an emulator.Observer that records a run's power history:
// every power failure, keyed by (probe kind, per-kind ordinal), plus
// optional periodic capacitor-level samples. It only reads the event
// stream, so a recorded run computes the same Result as the bare run,
// and replaying its Trace reproduces that Result byte-identically.
//
// A trace carries failure points, not the capacitor level, and a replay
// has no supply. MEMENTOS trigger checkpoints measure that level, so a
// harvested run of a program with them does not replay identically
// (iemu refuses to record one); runs without a supply do.
//
// A Recorder is single-run state: attach a fresh one to every run.
type Recorder struct {
	// SampleEvery, when positive, emits a capacitor-level "sample"
	// record every SampleEvery charge probes.
	SampleEvery int64

	schedule string
	eb       float64
	chargeN  int64
	injected bool // the next EvPowerFailure is the injection just recorded
	records  []Record
}

// NewRecorder returns a recorder for a run of sched (nil means plain
// exhaustion physics) with energy budget eb; both only label the trace.
// Attach it as (part of) the run's Config.Observer.
func NewRecorder(sched emulator.PowerSchedule, eb float64) *Recorder {
	if sched == nil {
		sched = emulator.Exhaustion()
	}
	return &Recorder{schedule: sched.Name(), eb: eb}
}

// Event implements emulator.Observer. An EvInjection names its probe
// kind and per-kind ordinal. Every other power failure is a refused
// draw; several draws share a step, so the recorder numbers charge
// probes itself — every draw (EvCharge) and every refused one — the way
// the replay schedule counts them.
func (r *Recorder) Event(e emulator.Event) {
	switch {
	case e.Kind == emulator.EvInjection:
		r.injected = true
		r.records = append(r.records, Record{
			K: "fail", Point: e.Point.String(), N: e.Seq, Step: e.Step, Cycle: e.Cycle, Level: e.CapEnergy,
		})
		return
	case e.Kind == emulator.EvPowerFailure && r.injected:
		r.injected = false
		return
	case e.Kind != emulator.EvCharge && e.Kind != emulator.EvPowerFailure:
		return
	}
	r.chargeN++
	if r.SampleEvery > 0 && r.chargeN%r.SampleEvery == 0 {
		r.records = append(r.records, Record{K: "sample", N: r.chargeN, Cycle: e.Cycle, Level: e.CapEnergy})
	}
	if e.Kind == emulator.EvPowerFailure {
		r.records = append(r.records, Record{
			K: "fail", Point: emulator.PointCharge.String(), N: r.chargeN,
			Step: e.Step, Cycle: e.Cycle, Level: e.CapEnergy, Draw: e.Energy,
		})
	}
}

// Trace packages everything recorded so far.
func (r *Recorder) Trace() *Trace {
	return &Trace{
		Header:  Header{Kind: "harvest-trace", Version: TraceVersion, Schedule: r.schedule, EB: r.eb},
		Records: append([]Record(nil), r.records...),
	}
}

// Schedule returns a fresh replay schedule that fires the trace's
// failures at exactly the probes that produced them. Replaying against
// the same program and configuration reproduces the recorded run's
// Result byte-identically.
func (t *Trace) Schedule() emulator.PowerSchedule {
	fails := t.fails()
	inner := t.Header.Schedule
	if inner == "" {
		inner = "trace"
	}
	return &replaySchedule{
		name:  fmt.Sprintf("replay(%s,n=%d)", inner, len(fails)),
		fails: fails,
	}
}

type replaySchedule struct {
	name    string
	fails   []Record
	next    int
	chargeN int64
}

func (s *replaySchedule) Name() string { return s.name }

func (s *replaySchedule) Fail(p emulator.Probe) bool {
	var ord int64
	if p.Kind == emulator.PointCharge {
		s.chargeN++
		ord = s.chargeN
	} else {
		ord = p.Occurrence
	}
	if s.next < len(s.fails) {
		f := &s.fails[s.next]
		if f.Point == p.Kind.String() && f.N == ord {
			s.next++
			return true
		}
	}
	return false
}

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
// replay. Ordinals are the machine's per-kind probe ordinals (see
// emulator.PointKind): a charge's is the run's 1-based draw ordinal,
// refused draws included.
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
			if _, ok := emulator.LookupPointKind(rec.Point); !ok {
				return nil, fmt.Errorf("harvest: trace line %d: unknown probe point %q", line, rec.Point)
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

// Recorder is an emulator.Observer that records a run's power history:
// every power failure, keyed by its probe kind and the ordinal the
// machine gave it (Event.Point and Event.Seq), plus optional periodic
// capacitor-level samples. It keeps no count of its own. It only reads
// the event stream, so a recorded run computes the same Result as the
// bare run, and replaying its Trace reproduces that Result
// byte-identically.
//
// A trace carries failure points, not the capacitor level, and a replay
// has no supply. MEMENTOS trigger checkpoints measure that level, so a
// harvested run of a program with them does not replay identically
// (iemu refuses to record one); runs without a supply do.
//
// A Recorder is single-run state: attach a fresh one to every run.
type Recorder struct {
	// SampleEvery, when positive, emits a capacitor-level "sample"
	// record at every charge ordinal that is a multiple of it.
	SampleEvery int64

	schedule string
	eb       float64
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

// Event implements emulator.Observer. The machine names every power
// failure's point and ordinal: an EvInjection its step or save point, a
// refused draw's EvPowerFailure its charge ordinal. Only EvCharge and
// that EvPowerFailure carry PointCharge, so the EvPowerFailure after an
// injection is not recorded twice.
func (r *Recorder) Event(e emulator.Event) {
	switch {
	case e.Kind == emulator.EvInjection:
		r.records = append(r.records, Record{
			K: "fail", Point: e.Point.String(), N: e.Seq, Step: e.Step, Cycle: e.Cycle, Level: e.CapEnergy,
		})
		return
	case e.Point != emulator.PointCharge:
		return
	}
	if r.SampleEvery > 0 && e.Seq%r.SampleEvery == 0 {
		r.records = append(r.records, Record{K: "sample", N: e.Seq, Cycle: e.Cycle, Level: e.CapEnergy})
	}
	if e.Kind == emulator.EvPowerFailure {
		r.records = append(r.records, Record{
			K: "fail", Point: e.Point.String(), N: e.Seq,
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

// Schedule returns a fresh replay of the trace: an
// emulator.TraceSchedule over its fail records, each firing at the
// probe of its kind and ordinal. Replaying against the same program and
// configuration reproduces the recorded run's Result byte-identically.
// A fail record naming no point kind (ReadTrace rejects those) is
// skipped.
func (t *Trace) Schedule() emulator.PowerSchedule {
	var points []emulator.FailPoint
	for _, r := range t.Records {
		if k, ok := emulator.LookupPointKind(r.Point); ok && r.K == "fail" {
			points = append(points, emulator.FailPoint{Kind: k, N: r.N})
		}
	}
	return emulator.TraceSchedule(points...)
}

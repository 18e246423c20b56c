package cli

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"schematic/internal/emulator"
	"schematic/internal/harvest"
)

// PowerSpec is a parsed power-schedule specification — the one grammar
// every surface (iemu -power, crashhunt -power, schematicd request
// options) shares:
//
//	spec    = member *( "+" member )
//	member  = kind [ ":" params ]
//	params  = param *( "," param )
//	param   = key "=" value | value        (bare value only for trace/csv files)
//
// Kinds: exhaustion, periodic, stride, random (synthetic schedules);
// solar, rf, piezo, duty (harvested environments behind a capacitor);
// trace (a recorded NDJSON trace, replayed); csv (an imported
// time-vs-power measurement behind a capacitor). A spec names at most
// one power source — exhaustion, a harvested environment, csv, or
// trace — because a run has one capacitor. Purely synthetic members get
// the built-in exhaustion physics composed in automatically, matching
// the emulator's default behavior.
//
// String() renders the canonical form — every parameter resolved and
// printed in a fixed order — so equal specs digest equally server-side.
type PowerSpec struct {
	members []powerMember
}

type powerMember struct {
	kind string
	// numeric params, resolved to their defaults at parse time
	num map[string]float64
	// file path for trace/csv members
	file string
}

// powerParam is one numeric parameter of a power kind: its key, its
// default, and whether the schedule takes it as an integer.
type powerParam struct {
	key     string
	def     float64
	intLike bool
}

// powerParams declares, per kind, the accepted numeric keys in
// canonical print order and their defaults. A default of 0 means
// "derived later" (cap from EB) and is omitted from the canonical form.
var powerParams = map[string][]powerParam{
	"exhaustion": {},
	"periodic": {
		{"cycles", 40_000, true},
	},
	"stride": {
		{"n", 10_000, true},
		{"max", 0, true},
	},
	"random": {
		{"seed", 1, true},
		{"mean", 25_000, true},
		{"max", 0, true},
	},
	"solar": {
		{"seed", 1, true},
		{"peak", 0.8, false},
		{"period", 2_000_000, true},
		{"day", 0.5, false},
		{"cloud", 0.4, false},
		{"window", 40_000, true},
		{"cap", 0, false},
		{"restart", 1, false},
	},
	"rf": {
		{"seed", 1, true},
		{"power", 1.5, false},
		{"burst", 20_000, true},
		{"gap", 60_000, true},
		{"cap", 0, false},
		{"restart", 1, false},
	},
	"piezo": {
		{"peak", 0.6, false},
		{"period", 40_000, true},
		{"cap", 0, false},
		{"restart", 1, false},
	},
	"duty": {
		{"power", 1, false},
		{"period", 100_000, true},
		{"duty", 0.35, false},
		{"cap", 0, false},
		{"restart", 1, false},
	},
	"trace": {},
	"csv": {
		{"hz", 8e6, false},
		{"scale", 0, false},
		{"cap", 0, false},
		{"restart", 1, false},
	},
}

var harvestKinds = map[string]bool{"solar": true, "rf": true, "piezo": true, "duty": true, "csv": true}

// isSource reports whether a member kind is a power source: the
// capacitor physics itself, or a replay of it.
func isSource(kind string) bool {
	return kind == "exhaustion" || kind == "trace" || harvestKinds[kind]
}

// ParsePower parses a power-schedule spec. The empty string parses to
// an empty spec whose Build returns a nil schedule (the emulator's
// default exhaustion physics).
func ParsePower(spec string) (*PowerSpec, error) {
	ps := &PowerSpec{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return ps, nil
	}
	source := ""
	for _, raw := range strings.Split(spec, "+") {
		m, err := parseMember(strings.TrimSpace(raw))
		if err != nil {
			return nil, err
		}
		if isSource(m.kind) {
			if source != "" {
				return nil, fmt.Errorf("power spec names two power sources, %q and %q: a run has one capacitor, so give at most one of exhaustion, solar, rf, piezo, duty, csv and trace", source, m.kind)
			}
			source = m.kind
		}
		ps.members = append(ps.members, m)
	}
	return ps, nil
}

func parseMember(raw string) (powerMember, error) {
	kind, rest, _ := strings.Cut(raw, ":")
	kind = strings.ToLower(strings.TrimSpace(kind))
	params, ok := powerParams[kind]
	if !ok {
		known := make([]string, 0, len(powerParams))
		for k := range powerParams {
			known = append(known, k)
		}
		sort.Strings(known)
		return powerMember{}, fmt.Errorf("unknown power kind %q (known: %s)", kind, strings.Join(known, ", "))
	}
	m := powerMember{kind: kind, num: map[string]float64{}}
	for _, p := range params {
		m.num[p.key] = p.def
	}
	if kind == "trace" || kind == "csv" {
		// File members: the first (or file=) value is the path; the
		// remaining params, if any, are numeric.
		if rest == "" {
			return powerMember{}, fmt.Errorf("power kind %q needs a file: %s:path", kind, kind)
		}
		for i, part := range strings.Split(rest, ",") {
			key, val, hasEq := strings.Cut(part, "=")
			switch {
			case hasEq && key == "file":
				m.file = val
			case !hasEq && i == 0:
				m.file = part
			case hasEq:
				if err := m.setNum(key, val); err != nil {
					return powerMember{}, err
				}
			default:
				return powerMember{}, fmt.Errorf("power %s: want key=value, got %q", kind, part)
			}
		}
		if m.file == "" {
			return powerMember{}, fmt.Errorf("power kind %q needs a file", kind)
		}
		return m, nil
	}
	if rest != "" {
		for _, part := range strings.Split(rest, ",") {
			key, val, hasEq := strings.Cut(part, "=")
			if !hasEq {
				return powerMember{}, fmt.Errorf("power %s: want key=value, got %q", kind, part)
			}
			if err := m.setNum(key, val); err != nil {
				return powerMember{}, err
			}
		}
	}
	return m, nil
}

// maxIntParam bounds an integer parameter: up to 2^53 a float64 holds
// every integer, so the canonical form re-parses to the same value, and
// a schedule's arithmetic on it (a random mean doubled, a stride added
// to a step) stays within int64.
const maxIntParam = 1 << 53

// setNum sets a numeric parameter: finite and non-negative, and for an
// integer parameter at most maxIntParam, truncated toward zero as the
// schedule takes it.
func (m *powerMember) setNum(key, val string) error {
	key = strings.ToLower(strings.TrimSpace(key))
	i := slices.IndexFunc(powerParams[m.kind], func(p powerParam) bool { return p.key == key })
	if i < 0 {
		var known []string
		for _, p := range powerParams[m.kind] {
			known = append(known, p.key)
		}
		return fmt.Errorf("power %s: unknown parameter %q (known: %s)", m.kind, key, strings.Join(known, ", "))
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
	if err != nil {
		return fmt.Errorf("power %s: bad value for %s: %q", m.kind, key, val)
	}
	if !(f >= 0) || math.IsInf(f, 1) {
		return fmt.Errorf("power %s: %s must be finite and non-negative, got %q", m.kind, key, val)
	}
	if powerParams[m.kind][i].intLike {
		if f > maxIntParam {
			return fmt.Errorf("power %s: %s=%s is above 2^53, the largest integer parameter", m.kind, key, strings.TrimSpace(val))
		}
		f = math.Trunc(f)
	}
	m.num[key] = f
	return nil
}

// Empty reports whether the spec selects the emulator's default
// physics (Build returns nil).
func (s *PowerSpec) Empty() bool { return len(s.members) == 0 }

// RequiresFile reports whether any member reads from the local
// filesystem (trace/csv) — which network surfaces must reject.
func (s *PowerSpec) RequiresFile() bool {
	for _, m := range s.members {
		if m.file != "" {
			return true
		}
	}
	return false
}

// Harvested reports whether any member carries harvested-capacitor
// physics (and therefore replaces the built-in exhaustion model).
func (s *PowerSpec) Harvested() bool {
	for _, m := range s.members {
		if harvestKinds[m.kind] {
			return true
		}
	}
	return false
}

// String renders the canonical spec: members in given order, every
// numeric parameter printed in fixed order, derived parameters
// (cap=0, max=0, scale=0) omitted.
func (s *PowerSpec) String() string {
	if s.Empty() {
		return ""
	}
	var parts []string
	for _, m := range s.members {
		var ps []string
		if m.file != "" {
			ps = append(ps, "file="+m.file)
		}
		for _, p := range powerParams[m.kind] {
			v := m.num[p.key]
			if v == 0 && (p.key == "cap" || p.key == "max" || p.key == "scale") {
				continue
			}
			if p.intLike {
				ps = append(ps, fmt.Sprintf("%s=%d", p.key, int64(v)))
			} else {
				// Plain decimal, never exponent form: "1e+06" would
				// collide with the "+" member separator on re-parse.
				ps = append(ps, p.key+"="+strconv.FormatFloat(v, 'f', -1, 64))
			}
		}
		if len(ps) == 0 {
			parts = append(parts, m.kind)
		} else {
			parts = append(parts, m.kind+":"+strings.Join(ps, ","))
		}
	}
	return strings.Join(parts, "+")
}

// Capacity returns the capacitor size a harvested member pins via
// cap=, or 0 when the capacity derives from the run's energy budget.
func (s *PowerSpec) Capacity() float64 {
	for _, m := range s.members {
		if harvestKinds[m.kind] && m.num["cap"] > 0 {
			return m.num["cap"]
		}
	}
	return 0
}

// Build constructs a fresh schedule for one run. eb is the run's
// energy budget, used as the default capacitor size for harvested
// members without an explicit cap=. An empty spec builds nil (the
// emulator's default physics). Build never reuses schedule state:
// call it once per run.
func (s *PowerSpec) Build(eb float64) (emulator.PowerSchedule, error) {
	if s.Empty() {
		return nil, nil
	}
	var scheds []emulator.PowerSchedule
	physics := false
	for _, m := range s.members {
		sched, err := m.build(eb)
		if err != nil {
			return nil, err
		}
		physics = physics || isSource(m.kind)
		scheds = append(scheds, sched)
	}
	if !physics {
		// Purely synthetic members (periodic, stride, random, trace
		// injections) run on top of the built-in exhaustion physics,
		// like the emulator default they augment.
		scheds = append([]emulator.PowerSchedule{emulator.Exhaustion()}, scheds...)
	}
	return emulator.Schedules(scheds...), nil
}

func (m *powerMember) capacitor(env harvest.Environment, eb float64) (emulator.PowerSchedule, error) {
	capacity := m.num["cap"]
	if capacity == 0 {
		capacity = eb
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("power %s: no capacitor size: give an energy budget or cap=<nJ>", m.kind)
	}
	return harvest.Capacitor{Env: env, Capacity: capacity, Restart: m.num["restart"]}.Schedule(), nil
}

func (m *powerMember) build(eb float64) (emulator.PowerSchedule, error) {
	n := func(k string) int64 { return int64(m.num[k]) }
	switch m.kind {
	case "exhaustion":
		return emulator.Exhaustion(), nil
	case "periodic":
		return emulator.Periodic(n("cycles")), nil
	case "stride":
		return emulator.StrideSchedule(n("n"), int(n("max"))), nil
	case "random":
		return emulator.RandomSchedule(n("seed"), n("mean"), int(n("max"))), nil
	case "solar":
		return m.capacitor(harvest.Solar{
			Seed: n("seed"), Peak: m.num["peak"], Period: n("period"),
			Day: m.num["day"], Cloud: m.num["cloud"], Window: n("window"),
		}, eb)
	case "rf":
		return m.capacitor(harvest.RF{
			Seed: n("seed"), Peak: m.num["power"], Burst: n("burst"), Gap: n("gap"),
		}, eb)
	case "piezo":
		return m.capacitor(harvest.Piezo{Peak: m.num["peak"], Period: n("period")}, eb)
	case "duty":
		return m.capacitor(harvest.Duty{
			Peak: m.num["power"], Period: n("period"), Frac: m.num["duty"],
		}, eb)
	case "trace":
		tr, err := harvest.LoadTrace(m.file)
		if err != nil {
			return nil, err
		}
		// A replay is self-contained: it reproduces the recorded
		// physics' refusals itself.
		return tr.Schedule(), nil
	case "csv":
		env, err := harvest.ImportCSVFile(m.file, harvest.CSVOptions{
			Hz: m.num["hz"], Scale: m.num["scale"],
		})
		if err != nil {
			return nil, err
		}
		return m.capacitor(env, eb)
	}
	return nil, fmt.Errorf("unknown power kind %q", m.kind)
}

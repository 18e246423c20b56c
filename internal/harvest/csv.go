package harvest

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"schematic/internal/emulator"
)

// CSVOptions controls how an external time-vs-power measurement trace
// is converted into an Environment.
type CSVOptions struct {
	// Hz converts the time column (seconds) into emulator cycles
	// (default 8e6, an 8 MHz MCU clock).
	Hz float64
	// Scale converts the power column into nJ/cycle. Zero selects the
	// physical default for a watts column: 1e9/Hz (W = nJ/ns scaled to
	// the cycle length).
	Scale float64
}

// ImportCSV parses "time,power" CSV rows (seconds, watts by default)
// into a step-function Environment. Header rows and lines starting with
// '#' are skipped; times must be non-decreasing. The waveform loops past
// its end.
func ImportCSV(r io.Reader, opts CSVOptions) (Environment, error) {
	hz := defF(opts.Hz, 8e6)
	scale := defF(opts.Scale, 1e9/hz)
	var cycles []int64
	var power []float64
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) < 2 {
			return nil, fmt.Errorf("harvest: csv line %d: want time,power", line)
		}
		t, errT := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		p, errP := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if errT != nil || errP != nil {
			if len(cycles) == 0 {
				continue // header row
			}
			return nil, fmt.Errorf("harvest: csv line %d: bad number", line)
		}
		if t < 0 || p < 0 || math.IsNaN(t) || math.IsNaN(p) || math.IsInf(t, 0) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("harvest: csv line %d: negative or non-finite value", line)
		}
		c := int64(t * hz)
		if n := len(cycles); n > 0 && c < cycles[n-1] {
			return nil, fmt.Errorf("harvest: csv line %d: time goes backwards", line)
		}
		cycles = append(cycles, c)
		power = append(power, p*scale)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cycles) == 0 {
		return nil, fmt.Errorf("harvest: csv has no samples")
	}
	// The final sample holds for as long as the previous segment did
	// (or one supply quantum for a single-sample trace), defining the
	// waveform's loop length.
	last := int64(emulator.SupplyQuantum)
	if n := len(cycles); n > 1 {
		if d := cycles[n-1] - cycles[n-2]; d > 0 {
			last = d
		}
	}
	h := fnv.New32a()
	for i := range cycles {
		fmt.Fprintf(h, "%d:%g;", cycles[i], power[i])
	}
	return &sampleEnv{
		name:   fmt.Sprintf("csv(n=%d,hz=%g,sum=%08x)", len(cycles), hz, h.Sum32()),
		cycles: cycles,
		power:  power,
		length: cycles[len(cycles)-1] + last,
	}, nil
}

// ImportCSVFile reads a CSV trace from disk.
func ImportCSVFile(path string, opts CSVOptions) (Environment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ImportCSV(f, opts)
}

// sampleEnv is a step-function waveform: power[i] holds from cycles[i]
// until the next sample.
type sampleEnv struct {
	name   string
	cycles []int64
	power  []float64
	length int64
}

func (e *sampleEnv) Name() string { return e.name }

func (e *sampleEnv) Power(cycle int64) float64 {
	if cycle >= e.length {
		cycle %= e.length
	}
	if cycle < e.cycles[0] {
		return 0
	}
	// Last sample at or before cycle.
	i := sort.Search(len(e.cycles), func(i int) bool { return e.cycles[i] > cycle }) - 1
	return e.power[i]
}

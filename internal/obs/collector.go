// Package obs turns the emulator's Observer event stream into
// observability artifacts: an energy-attribution collector (per-block,
// per-function and per-checkpoint-site ledgers that reconcile exactly
// against the run's energy total), a Chrome trace-event timeline
// (Perfetto-loadable), a folded-stack exporter for energy flamegraphs,
// and a raw NDJSON event stream.
//
// Every exporter is streaming: none retains the full event stream, so
// observing a long run costs memory proportional to the program's shape
// (blocks, sites, distinct call stacks), not its length.
//
// The collector reads no per-instruction event. It is an
// emulator.Attributor, so a run it observes alone batches like an
// unobserved one and the machine fills its per-block and per-site
// energy. The timeline, the flamegraph and the NDJSON stream read every
// event and keep a run on the stepped path; so does the Hub, whose
// subscribers read every event, and a collector inside a Hub folds the
// per-instruction events into the same ledgers itself.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"

	"schematic/internal/emulator"
)

// BlockEnergy is the per-block energy ledger: first-execution
// computation energy attributed to the block, with the Fig. 7 access
// split. Save/restore/re-execution energy is attributed to checkpoint
// sites instead (SiteStats), so blocks and sites partition the run's
// total energy between them.
type BlockEnergy struct {
	Func, Block string
	Entries     int64 // block executions (stack replays after a failure excluded)

	Compute     float64 // total first-execution computation energy, nJ
	VMAccess    float64 // portion spent on VM word accesses
	NVMAccess   float64 // portion spent on NVM word accesses
	VMAccesses  int64
	NVMAccesses int64
}

// Other is the non-memory share of the block's computation energy.
func (b *BlockEnergy) Other() float64 { return b.Compute - b.VMAccess - b.NVMAccess }

// FuncEnergy aggregates BlockEnergy over a function.
type FuncEnergy struct {
	Func                string
	Calls               int64 // frame pushes (boot and call entries; resumes excluded)
	Compute             float64
	VMAccess, NVMAccess float64
}

// SiteStats is the per-checkpoint-site ledger. Site -1 collects work
// with no owning checkpoint: cold-restart re-execution and boot-time
// restores.
type SiteStats struct {
	Site        int
	Func, Block string // first observed location of the site

	Fires      int64 // checkpoint instruction executions (incl. skipped/conditional)
	Saves      int64 // save operations actually performed
	Restores   int64 // restore operations (wake-ups and post-failure recoveries)
	BytesSaved int64 // bytes written to the NVM checkpoint area

	SaveEnergy    float64 // nJ
	RestoreEnergy float64
	ReexecEnergy  float64 // re-execution energy attributed to resumes from this site
}

// Total is the site's full intermittency bill.
func (s *SiteStats) Total() float64 { return s.SaveEnergy + s.RestoreEnergy + s.ReexecEnergy }

// Collector is an emulator.Observer that builds the attribution ledgers.
// It is an emulator.Attributor: run as the observer (or beside other
// Attributors), it is sent no per-instruction events, the machine fills
// its Attribution, and the run batches. Fed every event, as under a Hub,
// it folds EvCharge and EvBlockEnter into the same Attribution itself,
// so the ledgers are the same either way and are only touched by the
// goroutine delivering events. It is not safe for concurrent use;
// attach one collector per run.
type Collector struct {
	attr  emulator.Attribution
	sites []siteCounts // by site ID + 1, like attr.Sites

	PowerFailures    int64
	Sleeps           int64
	PoisonReads      int64
	InjectedFailures int64 // schedule-induced failures (subset of PowerFailures)
}

// siteCounts is what the collector counts per site from checkpoint
// events; the energy comes from the attribution.
type siteCounts struct {
	fires, saves, restores, bytesSaved int64
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Attribution implements emulator.Attributor.
func (c *Collector) Attribution() *emulator.Attribution { return &c.attr }

func (c *Collector) site(id int) *siteCounts {
	i := id + 1
	if i >= len(c.sites) {
		c.sites = append(c.sites, make([]siteCounts, i+1-len(c.sites))...)
	}
	return &c.sites[i]
}

// Event implements emulator.Observer.
func (c *Collector) Event(e emulator.Event) {
	c.attr.Add(e)
	switch e.Kind {
	case emulator.EvCheckpointHit:
		c.site(e.Site).fires++
	case emulator.EvSave:
		s := c.site(e.Site)
		s.saves++
		s.bytesSaved += int64(e.Bytes)
	case emulator.EvRestore:
		c.site(e.Site).restores++
	case emulator.EvPowerFailure:
		c.PowerFailures++
	case emulator.EvInjection:
		c.InjectedFailures++
	case emulator.EvSleepStart:
		c.Sleeps++
	case emulator.EvPoisonRead:
		c.PoisonReads++
	}
}

// Blocks returns the per-block ledgers sorted by (function, block).
func (c *Collector) Blocks() []BlockEnergy {
	out := []BlockEnergy{}
	for i := range c.attr.Blocks {
		b := &c.attr.Blocks[i]
		if b.Block == nil {
			continue
		}
		out = append(out, BlockEnergy{
			Func: b.Fn.Name, Block: b.Block.Name, Entries: b.Entries,
			Compute: b.Compute, VMAccess: b.VMAccess, NVMAccess: b.NVMAccess,
			VMAccesses: b.VMAccesses, NVMAccesses: b.NVMAccesses,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Func != out[j].Func {
			return out[i].Func < out[j].Func
		}
		return out[i].Block < out[j].Block
	})
	return out
}

// Functions aggregates the block ledgers per function, sorted by name.
// Aggregation walks the blocks in their sorted order so the float sums
// accumulate in one fixed sequence and two calls (or two runs) render
// byte-identical values.
func (c *Collector) Functions() []FuncEnergy {
	var out []FuncEnergy
	for _, b := range c.Blocks() {
		if len(out) == 0 || out[len(out)-1].Func != b.Func {
			out = append(out, FuncEnergy{Func: b.Func})
		}
		f := &out[len(out)-1]
		f.Compute += b.Compute
		f.VMAccess += b.VMAccess
		f.NVMAccess += b.NVMAccess
	}
	return out
}

// Sites returns the per-site ledgers sorted by site ID.
func (c *Collector) Sites() []SiteStats {
	out := []SiteStats{}
	for i := range c.attr.Sites {
		a := &c.attr.Sites[i]
		if !a.Seen {
			continue
		}
		s := SiteStats{Site: i - 1, SaveEnergy: a.Save, RestoreEnergy: a.Restore, ReexecEnergy: a.Reexec}
		if a.Fn != nil {
			s.Func = a.Fn.Name
		}
		if a.Block != nil {
			s.Block = a.Block.Name
		}
		if i < len(c.sites) {
			n := c.sites[i]
			s.Fires, s.Saves, s.Restores, s.BytesSaved = n.fires, n.saves, n.restores, n.bytesSaved
		}
		out = append(out, s)
	}
	return out
}

// TopSites returns up to n sites ordered by total attributed energy
// (descending, ties by site ID).
func (c *Collector) TopSites(n int) []SiteStats {
	out := c.Sites()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Total() > out[j].Total() })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// AttributedTotal is the energy the collector accounted for: block
// computation plus site save/restore/re-execution.
// The sum runs over the sorted ledgers so the accumulation order — and
// therefore the rounded float — is the same on every call.
func (c *Collector) AttributedTotal() float64 {
	var t float64
	for _, b := range c.Blocks() {
		t += b.Compute
	}
	for _, s := range c.Sites() {
		t += s.Total()
	}
	return t
}

// Reconcile enforces the attribution invariant: every category and the
// grand total must match the run's ledger. A violation means the
// emulator charged energy the collector did not see, or vice versa.
//
// The tolerance is 1e-6 nJ plus a 1e-8 relative term: the ledger sums
// charges chronologically while the collector groups them per block and
// site, so float rounding drifts with the charge count — but stays many
// orders of magnitude below a single instruction charge (~0.4 nJ), the
// smallest possible real attribution error.
func (c *Collector) Reconcile(res *emulator.Result) error {
	var compute, save, restore, reexec float64
	for _, b := range c.Blocks() {
		compute += b.Compute
	}
	for _, s := range c.Sites() {
		save += s.SaveEnergy
		restore += s.RestoreEnergy
		reexec += s.ReexecEnergy
	}
	check := func(name string, got, want float64) error {
		tol := 1e-6 + 1e-8*math.Abs(want)
		if math.Abs(got-want) > tol {
			return fmt.Errorf("obs: %s energy mismatch: attributed %.9f nJ, ledger %.9f nJ", name, got, want)
		}
		return nil
	}
	l := res.Energy
	for _, e := range []error{
		check("compute", compute, l.Computation),
		check("save", save, l.Save),
		check("restore", restore, l.Restore),
		check("re-execution", reexec, l.Reexecution),
		check("total", compute+save+restore+reexec, l.Total()),
	} {
		if e != nil {
			return e
		}
	}
	return nil
}

// SiteName renders a site ID for display; -1 is the synthetic boot site.
func SiteName(id int) string {
	if id < 0 {
		return "(boot)"
	}
	return fmt.Sprintf("#%d", id)
}

// RenderSites prints the per-site table (iemu -sites).
func (c *Collector) RenderSites(w io.Writer) {
	fmt.Fprintf(w, "%-8s %-20s %8s %8s %8s %10s %10s %10s %10s %10s\n",
		"site", "where", "fires", "saves", "restores", "bytes", "save µJ", "rest µJ", "re-ex µJ", "total µJ")
	for _, s := range c.Sites() {
		where := s.Func
		if s.Block != "" {
			where += "." + s.Block
		}
		fmt.Fprintf(w, "%-8s %-20s %8d %8d %8d %10d %10.1f %10.1f %10.1f %10.1f\n",
			SiteName(s.Site), where, s.Fires, s.Saves, s.Restores, s.BytesSaved,
			s.SaveEnergy/1000, s.RestoreEnergy/1000, s.ReexecEnergy/1000, s.Total()/1000)
	}
}

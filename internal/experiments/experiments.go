// Package experiments contains one driver per reproduced artifact of the
// paper: the five figures (F1-F5) and the measured claims (E1-E9) indexed
// by Suite (`kfbench -list`). Each driver is deterministic — it runs on the
// simulated machine with fixed seeds — and returns both a rendered text
// report and a map of named metrics that the test and benchmark harnesses
// assert on. cmd/kfbench prints the reports; README "Running the paper's
// experiments" shows how.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/machine"
)

// overlay is what kfbench's -transport, -nodes, -executor and -chaos flags
// select, as one partial core.Spec laid over every system newSys builds:
// the whole experiment suite then runs on any registered substrate, engine
// or fault scenario (values and message censuses are invariant under all
// three, so the metrics must not move under a flat cost model). The zero
// Spec keeps the per-experiment defaults. chaosSystems tracks the systems
// built under a scenario so their fault/recovery reports can be aggregated
// afterwards.
var (
	overlay      core.Spec
	chaosSystems []*core.System
)

// SetOverlay installs the overlay (see above), replacing any earlier one.
// Only Transport, Nodes, Executor and Chaos are read. Because the suite's
// machines come in many sizes, each system clamps Nodes to gcd(Nodes,
// processor count) so it always divides; a Chaos scenario replaces the
// selected transport (default "shared") by its chaos-wrapped variant. The
// scaling experiments (S1-S6), which declare their transports explicitly,
// are not disturbed — their entire point is a specific arrangement.
// Unknown names, federation shapes the transport rejects and invalid
// scenarios are reported here instead of as a panic mid-experiment.
func SetOverlay(o core.Spec) error {
	if o.Nodes < 0 {
		return fmt.Errorf("experiments: negative node count %d", o.Nodes)
	}
	if o.Transport != "" {
		// Probe the registry with an n the node count trivially divides.
		probe := max(o.Nodes, 1)
		if _, err := machine.NewTransportByName(o.Transport, probe, probe); err != nil {
			return err
		}
	}
	if o.Executor != "" {
		if _, err := machine.NewExecutorByName(o.Executor); err != nil {
			return err
		}
	}
	if o.Chaos != nil {
		if err := o.Chaos.Validate(); err != nil {
			return err
		}
	}
	overlay, chaosSystems = o, nil
	return nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// applyOverlay is the core.Option that lays the overlay over a declaration
// whose Grid is already filled.
func applyOverlay(s *core.Spec) error {
	if overlay.Transport != "" {
		size := 1
		for _, e := range s.Grid {
			size *= e
		}
		s.Transport, s.Nodes = overlay.Transport, gcd(max(overlay.Nodes, 1), size)
	}
	if overlay.Chaos != nil {
		if s.Transport == "" {
			s.Transport = "shared"
		}
		if !strings.HasPrefix(s.Transport, machine.ChaosPrefix) {
			s.Transport = machine.ChaosPrefix + s.Transport
		}
		s.Chaos = overlay.Chaos
	}
	if overlay.Executor != "" {
		s.Executor = overlay.Executor
	}
	return nil
}

// ChaosReport aggregates the fault/recovery reports of every chaos-wrapped
// system built since SetOverlay installed a scenario — the whole-suite
// census kfbench writes out. ok is false when no scenario is installed.
func ChaosReport() (rep chaos.Report, ok bool) {
	if overlay.Chaos == nil {
		return chaos.Report{}, false
	}
	rep = chaos.Report{Name: overlay.Chaos.Name, Seed: overlay.Chaos.Seed}
	for _, sys := range chaosSystems {
		if r, sysOK := sys.ChaosTotalReport(); sysOK {
			rep = rep.Add(r)
		}
	}
	return rep, true
}

// newSys declares the experiment's system on the given processor grid
// shape — core's defaults unless the extra options (or kfbench's overlay)
// say otherwise. Experiments panic on misconfiguration, as they do on any
// internal failure.
func newSys(shape []int, opts ...core.Option) *core.System {
	sys := mustSys(append([]core.Option{core.Grid(shape...), applyOverlay}, opts...)...)
	if overlay.Chaos != nil {
		chaosSystems = append(chaosSystems, sys)
	}
	return sys
}

// mustSys builds a system from explicit options only — for the scaling
// experiments (S1-S6) whose entire point is a specific transport
// arrangement, which kfbench's overlay must not disturb.
func mustSys(opts ...core.Option) *core.System { return core.MustSystem(opts...) }

// runProg runs prog on sys, panicking on failure (experiment style).
func runProg(sys *core.System, prog *core.Program) core.Run {
	run, err := sys.RunProgram(prog)
	if err != nil {
		panic(err)
	}
	return run
}

// Result is one experiment's output.
type Result struct {
	// ID is the experiment identifier from Suite (F1..F5, E1..E9, ...).
	ID string
	// Title is a one-line description.
	Title string
	// Text is the rendered report (tables, series, activity diagrams).
	Text string
	// Metrics carries the key numbers for programmatic assertions.
	Metrics map[string]float64
}

// Entry indexes one experiment without running it: selection and listing
// stay cheap no matter how heavy the suite grows.
type Entry struct {
	// ID is the experiment identifier `kfbench -list` prints (F1..F5,
	// E1..E9, A1..A3, S1..S6).
	ID string
	// Title is the one-line description (matches the Result's Title).
	Title string
	// Run executes the experiment.
	Run func() Result
}

// Suite returns the experiment index in index order.
func Suite() []Entry {
	return []Entry{
		{"F1", "first reduction step of the substructured tridiagonal solver (Figure 1)", F1FirstReduction},
		{"F2", "reduction of four rows of a tridiagonal system (Figure 2)", F2FourRowReduction},
		{"F3", "dataflow graph of the substructured algorithm (Figure 3)", F3Dataflow},
		{"F4", "substitution phase recovers the sequential solution (Figure 4)", F4Substitution},
		{"F5", "shuffle/unshuffle mapping of the dataflow graph (Figure 5)", F5Mapping},
		{"E1", "Jacobi: sequential vs message passing vs KF1 (Listings 1-3, claim C2)", E1Jacobi},
		{"E2", "parallel tridiagonal solver scaling (Listing 4)", E2Tri},
		{"E3", "pipelining multiple tridiagonal systems (Listing 6, claim C4)", E3Pipeline},
		{"E4", "ADI iteration built from parallel tridiagonal kernels (Listing 7)", E4ADI},
		{"E5", "pipelined ADI (madi) vs line-at-a-time ADI (claim C4)", E5MADI},
		{"E6", "multigrid with zebra relaxation and semicoarsening (Listings 9-11)", E6Multigrid},
		{"E7", "distribution choice ablation for MG3 (Section 5 discussion, claim C3)", E7Distribution},
		{"E8", "code size: message passing vs sequential vs KF1 (claim C1)", E8CodeSize},
		{"E9", "implicit communication: compiled exchange vs runtime gathering (Section 2)", E9Inspector},
		{"A1", "ablation: shuffle/unshuffle vs left-packed dataflow mapping (Figure 5 design choice)", A1Mapping},
		{"A2", "performance estimator vs simulator (the tool Section 2 promises)", A2Estimator},
		{"A3", "block vs cyclic columns for dense LU (Section 2's cyclic motivation)", A3Cyclic},
		{"S1", "64-processor scaling and schedule-replay equivalence", S1Scale64},
		{"S2", "256-processor federation and transport equivalence", S2Transport256},
		{"S3", "1024-processor federation with per-link cost model", S3Hierarchical1024},
		{"S4", "per-link cost asymmetry: slow uplinks and fast backbones", S4LinkAsymmetry},
		{"S5", "256-processor chaos: seeded faults, recovery, bit-identical values", S5ChaosRecovery},
		{"S6", "16384 virtual processors on the calendar executor, engine equivalence", S6Calendar16384},
	}
}

// All runs every experiment in index order.
func All() []Result {
	entries := Suite()
	out := make([]Result, 0, len(entries))
	for _, e := range entries {
		out = append(out, e.Run())
	}
	return out
}

// Render formats a result for terminal output.
func Render(r Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	sb.WriteString(r.Text)
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString("metrics:")
		for _, k := range keys {
			fmt.Fprintf(&sb, " %s=%.6g", k, r.Metrics[k])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// maxAbsDiff returns the largest absolute element difference.
func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// randTridiag builds a diagonally dominant system of size n from a seed.
func randTridiag(seed uint64, n int) (b, a, c, f []float64) {
	b = make([]float64, n)
	a = make([]float64, n)
	c = make([]float64, n)
	f = make([]float64, n)
	s := seed
	next := func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z%2000)/1000 - 1
	}
	for i := 0; i < n; i++ {
		b[i], c[i] = next(), next()
		a[i] = 4 + math.Abs(next())
		f[i] = 10 * next()
	}
	b[0], c[n-1] = 0, 0
	return
}

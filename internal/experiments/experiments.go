// Package experiments contains one driver per reproduced artifact of the
// paper: the five figures (F1-F5), the measured claims (E1-E9), ablations
// (A1-A3) and scaling rows (S1-S6), indexed by Suite (`kfbench -list`).
// Each driver is deterministic — it runs on the simulated machine with
// fixed seeds — and returns both a rendered text report and a map of named
// metrics that the test and benchmark harnesses assert on. Entry.Run runs
// one under an overlay, with no state shared between runs; cmd/kfbench
// prints the reports.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/kf"
	"repro/internal/machine"
)

// env is one experiment run's environment: the overlay Entry.Run lays over
// the experiment's systems, and every System the experiment builds, so
// that Run can sum their chaos reports and close them.
type env struct {
	overlay core.Spec
	built   []*core.System // every System, closed by Entry.Run
	chaos   []*core.System // the overlay-built ones under a scenario
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// apply is the core.Option that lays the overlay over a declaration whose
// Grid is already filled.
func (e *env) apply(s *core.Spec) error {
	o := e.overlay
	if o.Transport != "" {
		size := 1
		for _, x := range s.Grid {
			size *= x
		}
		s.Transport, s.Nodes = o.Transport, gcd(max(o.Nodes, 1), size)
	}
	if o.Chaos != nil {
		if s.Transport == "" {
			s.Transport = "shared"
		}
		if !strings.HasPrefix(s.Transport, machine.ChaosPrefix) {
			s.Transport = machine.ChaosPrefix + s.Transport
		}
		s.Chaos = o.Chaos
	}
	return nil
}

// sys declares a system on the given processor grid shape — core's
// defaults unless the extra options (or the overlay) say otherwise.
// Experiments panic on misconfiguration, as they do on any internal
// failure.
func (e *env) sys(shape []int, opts ...core.Option) *core.System {
	sys := e.explicit(append([]core.Option{core.Grid(shape...), e.apply}, opts...)...)
	if e.overlay.Chaos != nil {
		e.chaos = append(e.chaos, sys)
	}
	return sys
}

// explicit builds a system from explicit options only — for the scaling
// experiments (S1-S6), whose entire point is a specific transport
// arrangement that the overlay must not disturb.
func (e *env) explicit(opts ...core.Option) *core.System {
	sys := core.MustSystem(opts...)
	e.built = append(e.built, sys)
	return sys
}

// runLast runs prog on sys and closes it. A sweep point's system ends
// there: a machine keeps a goroutine stack per body rank until it is
// closed, which at 1,024 ranks and up outweighs the rank data.
func runLast(sys *core.System, prog *core.Program) core.Run {
	run, err := sys.RunProgram(prog)
	return must(run, errors.Join(err, sys.Close()))
}

// run executes body on a new system (see sys) and returns the system, for
// its Stats and Trace, and the virtual elapsed time.
func (e *env) run(shape []int, body func(c *kf.Ctx) error, opts ...core.Option) (*core.System, float64) {
	sys := e.sys(shape, opts...)
	return sys, must(sys.Run(body))
}

// must returns v, panicking on err (experiment style).
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
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
	// Title is the one-line description.
	Title string

	run func(*env) Result
}

// Run executes the experiment with overlay, a partial core.Spec that
// kfbench's -transport, -nodes and -chaos flags select, laid over every
// system the experiment builds: the suite then runs on any registered
// substrate or fault scenario (values and message censuses are invariant
// under both, so the metrics must not move under a flat cost model). The
// zero Spec keeps the per-experiment defaults. Only Transport, Nodes and
// Chaos are read. Because the suite's machines come in many sizes, each
// system clamps Nodes to gcd(Nodes, processor count) so it always
// divides; a Chaos scenario replaces the selected transport (default
// "shared") by its chaos-wrapped variant. The scaling experiments
// (S1-S6), which declare their transports explicitly, are not disturbed —
// their entire point is a specific arrangement. Unknown names, federation shapes the transport rejects and
// invalid scenarios are reported as the error instead of as a panic
// mid-experiment.
//
// The report sums the fault/recovery reports of the systems the overlay's
// scenario wrapped (zero without a scenario). Run closes every system the
// experiment built before it returns, so no ipc worker outlives it.
func (en Entry) Run(overlay core.Spec) (r Result, rep chaos.Report, err error) {
	if err := checkOverlay(overlay); err != nil {
		return Result{}, chaos.Report{}, err
	}
	e := &env{overlay: overlay}
	defer func() {
		for _, sys := range e.built {
			err = errors.Join(err, sys.Close())
		}
	}()
	r = en.run(e)
	r.ID, r.Title = en.ID, en.Title
	if o := overlay.Chaos; o != nil {
		rep = chaos.Report{Name: o.Name, Seed: o.Seed}
		for _, sys := range e.chaos {
			if sr, ok := sys.ChaosTotalReport(); ok {
				rep = rep.Add(sr)
			}
		}
	}
	return r, rep, nil
}

func checkOverlay(o core.Spec) error {
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
	if o.Chaos != nil {
		return o.Chaos.Validate()
	}
	return nil
}

// Suite returns the experiment index in index order.
func Suite() []Entry {
	return []Entry{
		{"F1", "first reduction step of the substructured tridiagonal solver (Figure 1)", f1FirstReduction},
		{"F2", "reduction of four rows of a tridiagonal system (Figure 2)", f2FourRowReduction},
		{"F3", "dataflow graph of the substructured algorithm (Figure 3)", f3Dataflow},
		{"F4", "substitution phase recovers the sequential solution (Figure 4)", f4Substitution},
		{"F5", "shuffle/unshuffle mapping of the dataflow graph (Figure 5)", f5Mapping},
		{"E1", "Jacobi: sequential vs message passing vs KF1 (Listings 1-3, claim C2)", e1Jacobi},
		{"E2", "parallel tridiagonal solver scaling (Listing 4)", e2Tri},
		{"E3", "pipelining multiple tridiagonal systems (Listing 6, claim C4)", e3Pipeline},
		{"E4", "ADI iteration built from parallel tridiagonal kernels (Listing 7)", e4ADI},
		{"E5", "pipelined ADI (madi) vs line-at-a-time ADI (claim C4)", e5MADI},
		{"E6", "multigrid with zebra relaxation and semicoarsening (Listings 9-11)", e6Multigrid},
		{"E7", "distribution choice ablation for MG3 (Section 5 discussion, claim C3)", e7Distribution},
		{"E8", "code size: message passing vs sequential vs KF1 (claim C1)", e8CodeSize},
		{"E9", "implicit communication: compiled exchange vs runtime gathering (Section 2)", e9Inspector},
		{"A1", "ablation: shuffle/unshuffle vs left-packed dataflow mapping (Figure 5 design choice)", a1Mapping},
		{"A2", "performance estimator vs simulator (the tool Section 2 promises)", a2Estimator},
		{"A3", "block vs cyclic columns for dense LU (Section 2's cyclic motivation)", a3Cyclic},
		{"S1", "64-processor scaling and schedule-replay equivalence", s1Scale64},
		{"S2", "256-processor federation and transport equivalence", s2Transport256},
		{"S3", "1024-processor federation with per-link cost model", s3Hierarchical1024},
		{"S4", "per-link cost asymmetry: slow uplinks and fast backbones", s4LinkAsymmetry},
		{"S5", "256-processor chaos: seeded faults, recovery, bit-identical values", s5ChaosRecovery},
		{"S6", "16384 virtual processors on the calendar executor, engine equivalence", s6Calendar16384},
	}
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

// splitmix returns a seeded splitmix64 stream of values in [-1, 1).
func splitmix(seed uint64) func() float64 {
	s := seed
	return func() float64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z%2000)/1000 - 1
	}
}

// maxAbsDiffRows is maxAbsDiff over equally shaped matrices given as rows.
func maxAbsDiffRows(a, b [][]float64) float64 {
	worst := 0.0
	for i := range a {
		worst = max(worst, maxAbsDiff(a[i], b[i]))
	}
	return worst
}

// randTridiag builds a diagonally dominant system of size n from a seed.
func randTridiag(seed uint64, n int) (b, a, c, f []float64) {
	b = make([]float64, n)
	a = make([]float64, n)
	c = make([]float64, n)
	f = make([]float64, n)
	next := splitmix(seed)
	for i := 0; i < n; i++ {
		b[i], c[i] = next(), next()
		a[i] = 4 + math.Abs(next())
		f[i] = 10 * next()
	}
	b[0], c[n-1] = 0, 0
	return
}

// Package benchkit defines the repository's perf-snapshot benchmarks — the
// host-side cost of the runtime's hot paths, shared between `go test
// -bench` (bench_test.go at the repo root) and the `kfbench -bench` JSON
// snapshot so both always measure the same thing — plus the snapshot file
// format and the compare mode CI uses to fail on regressions.
package benchkit

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/jacobi"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/progs"
	"repro/internal/serve"
)

// Result is one benchmark's snapshot entry.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// SnapshotFile is the on-disk format of a BENCH_<n>.json perf snapshot.
// GoMaxProcs and NumCPU record the host parallelism the numbers were taken
// under: benchmarks multiplexing thousands of virtual processors over a
// worker pool scale with it, so a compare across differing parallelism is
// flagged (see ParallelismWarning) rather than trusted blindly.
type SnapshotFile struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"go_maxprocs,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	// Note carries free-form context for the snapshot — e.g. which change
	// the numbers bracket — surviving alongside the data it explains.
	Note    string   `json:"note,omitempty"`
	Results []Result `json:"results"`
}

// HostParallelism returns the GOMAXPROCS and CPU count a snapshot taken on
// this host should record.
func HostParallelism() (gomaxprocs, numCPU int) {
	return runtime.GOMAXPROCS(0), runtime.NumCPU()
}

// ParallelismWarning returns a non-empty advisory when two snapshots were
// taken under different host parallelism — the numbers are then comparing
// machines as much as code, so Compare's verdicts deserve suspicion but not
// failure. Snapshots predating the parallelism fields produce no warning.
func ParallelismWarning(prev, cur SnapshotFile) string {
	if prev.GoMaxProcs == 0 && prev.NumCPU == 0 {
		return ""
	}
	if prev.GoMaxProcs == cur.GoMaxProcs && prev.NumCPU == cur.NumCPU {
		return ""
	}
	return fmt.Sprintf("host parallelism differs: previous snapshot GOMAXPROCS=%d NumCPU=%d, current GOMAXPROCS=%d NumCPU=%d — deltas reflect the host as much as the code",
		prev.GoMaxProcs, prev.NumCPU, cur.GoMaxProcs, cur.NumCPU)
}

// Load reads a snapshot file.
func Load(path string) (SnapshotFile, error) {
	var s SnapshotFile
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("benchkit: parsing %s: %w", path, err)
	}
	return s, nil
}

// Save writes a snapshot file (or stdout for "-").
func Save(path string, s SnapshotFile) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// snapshotName matches committed perf snapshots: BENCH_<n>.json.
var snapshotName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// LatestSnapshot returns the path of the highest-numbered BENCH_<n>.json in
// dir — the snapshot a compare run should diff against, so CI does not need
// to name (and PRs do not need to edit) the current snapshot explicitly.
func LatestSnapshot(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	best, bestN := "", -1
	for _, e := range entries {
		m := snapshotName.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		n, err := strconv.Atoi(m[1])
		if err != nil || n <= bestN {
			continue
		}
		best, bestN = e.Name(), n
	}
	if best == "" {
		return "", fmt.Errorf("benchkit: no BENCH_<n>.json snapshot in %s", dir)
	}
	return filepath.Join(dir, best), nil
}

// Delta describes one benchmark's change versus a previous snapshot.
type Delta struct {
	Name                  string
	PrevNs, CurNs         float64
	PrevAllocs, CurAllocs int64
	Regression            bool
	Reason                string
}

// NsTolerance is the default relative ns/op growth tolerated before a
// benchmark counts as regressed.
const NsTolerance = 0.25

// AllocsTolerance is the relative allocs/op growth tolerated. Allocation
// counts are deterministic on the runtime's steady-state paths — a
// zero-alloc pin tolerates no growth at all — but whole-program benchmarks
// carry noise: hundreds of simulated processors add O(concurrent mailbox
// keys) scheduling jitter (absorbed by the 1% band), and small nonzero
// counts are one-off setup costs amortized over b.N, which round up or
// down by one from run to run (absorbed by the one-alloc floor below).
const AllocsTolerance = 0.01

// allocsSlack returns the absolute allocs/op growth tolerated over a
// previous count: zero pins stay exact, any nonzero count gets at least
// the one-alloc rounding slack.
func allocsSlack(prev int64) int64 {
	if prev == 0 {
		return 0
	}
	if s := int64(float64(prev) * AllocsTolerance); s > 1 {
		return s
	}
	return 1
}

// Compare matches cur against prev by benchmark name and flags
// regressions: ns/op grown beyond nsTol, or allocs/op grown beyond
// allocsSlack (zero-alloc pins stay exact). Benchmarks missing from prev
// are reported without judgment; benchmarks present in prev but dropped
// from cur count as regressions, so coverage cannot silently shrink.
func Compare(prev, cur SnapshotFile, nsTol float64) []Delta {
	prevBy := make(map[string]Result, len(prev.Results))
	for _, r := range prev.Results {
		prevBy[r.Name] = r
	}
	curBy := make(map[string]bool, len(cur.Results))
	var out []Delta
	for _, r := range cur.Results {
		curBy[r.Name] = true
		d := Delta{Name: r.Name, CurNs: r.NsPerOp, CurAllocs: r.AllocsPerOp}
		p, ok := prevBy[r.Name]
		if !ok {
			d.Reason = "new benchmark"
			out = append(out, d)
			continue
		}
		d.PrevNs, d.PrevAllocs = p.NsPerOp, p.AllocsPerOp
		switch {
		case r.AllocsPerOp > p.AllocsPerOp+allocsSlack(p.AllocsPerOp):
			d.Regression = true
			d.Reason = fmt.Sprintf("allocs/op grew %d -> %d", p.AllocsPerOp, r.AllocsPerOp)
		case p.NsPerOp > 0 && r.NsPerOp > p.NsPerOp*(1+nsTol):
			d.Regression = true
			d.Reason = fmt.Sprintf("ns/op grew %.0f -> %.0f (>%.0f%%)", p.NsPerOp, r.NsPerOp, nsTol*100)
		}
		out = append(out, d)
	}
	for _, p := range prev.Results {
		if !curBy[p.Name] {
			out = append(out, Delta{
				Name:       p.Name,
				PrevNs:     p.NsPerOp,
				PrevAllocs: p.AllocsPerOp,
				Regression: true,
				Reason:     "benchmark removed from snapshot",
			})
		}
	}
	return out
}

// Bench is one named snapshot benchmark.
type Bench struct {
	Name string
	Fn   func(b *testing.B)
}

// GoVersion returns the toolchain version string recorded in snapshots.
func GoVersion() string { return runtime.Version() }

// Snapshot returns the benchmarks recorded in BENCH_<n>.json files: the
// hot paths whose trajectory across PRs matters most.
func Snapshot() []Bench {
	return []Bench{
		{"HaloExchange2D", HaloExchange2D},
		{"E4ADI", E4ADI},
		{"JacobiKF1Iteration", JacobiKF1Iteration},
		{"MachinePingPong", MachinePingPong},
		{"MachinePingPongFederated", MachinePingPongFederated},
		{"MachinePingPongFederatedPriced", MachinePingPongFederatedPriced},
		{"MachinePingPongIPC", MachinePingPongIPC},
		{"Jacobi64Proc", Jacobi64Proc},
		{"Jacobi256Proc", Jacobi256Proc},
		{"Jacobi1024ProcPriced", Jacobi1024ProcPriced},
		{"Jacobi1024ProcIPC4Node", Jacobi1024ProcIPC4Node},
		{"Jacobi16384Proc", Jacobi16384Proc},
		{"ServeWarmJacobi8x8", ServeWarmJacobi8x8},
		{"ServeColdJacobi8x8", ServeColdJacobi8x8},
	}
}

// MachinePingPong measures the host cost of one simulated message round
// trip (mailbox, virtual clocks, tracing off).
func MachinePingPong(b *testing.B) {
	b.ReportAllocs()
	m := core.MustSystem(core.Grid(2), core.Cost(machine.ZeroComm())).Machine
	b.ResetTimer()
	err := m.Run(func(p *machine.Proc) error {
		other := 1 - p.Rank()
		for i := 0; i < b.N; i++ {
			if p.Rank() == 0 {
				p.SendValue(other, 1, 1)
				p.RecvValue(other, 2)
			} else {
				p.RecvValue(other, 1)
				p.SendValue(other, 2, 1)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// MachinePingPongFederated measures one simulated message round trip
// crossing a federation link (two nodes of one processor each): the
// per-node mailbox plus per-link counter overhead versus the shared path.
func MachinePingPongFederated(b *testing.B) {
	b.ReportAllocs()
	m := core.MustSystem(core.Grid(2), core.Transport("federated"), core.Nodes(2),
		core.Cost(machine.ZeroComm())).Machine
	b.ResetTimer()
	err := m.Run(func(p *machine.Proc) error {
		other := 1 - p.Rank()
		for i := 0; i < b.N; i++ {
			if p.Rank() == 0 {
				p.SendValue(other, 1, 1)
				p.RecvValue(other, 2)
			} else {
				p.RecvValue(other, 1)
				p.SendValue(other, 2, 1)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// MachinePingPongIPC measures one simulated message round trip where the
// delivery crosses two OS processes: each message is framed, written to a
// node worker's Unix socket, reflected back and decoded into a pooled
// buffer. The gap to MachinePingPongFederated is the real price of the
// process boundary (syscalls plus the wire codec; the codec itself is
// allocation-free after warmup).
func MachinePingPongIPC(b *testing.B) {
	b.ReportAllocs()
	sys := core.MustSystem(core.Grid(2), core.Transport("ipc"), core.Nodes(2),
		core.Cost(machine.ZeroComm()))
	defer sys.Close()
	m := sys.Machine
	// Warm up the worker processes and buffer pools off the clock.
	if err := m.Run(func(p *machine.Proc) error {
		other := 1 - p.Rank()
		for i := 0; i < 64; i++ {
			if p.Rank() == 0 {
				p.SendValue(other, 1, 1)
				p.RecvValue(other, 2)
			} else {
				p.RecvValue(other, 1)
				p.SendValue(other, 2, 1)
			}
		}
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	err := m.Run(func(p *machine.Proc) error {
		other := 1 - p.Rank()
		for i := 0; i < b.N; i++ {
			if p.Rank() == 0 {
				p.SendValue(other, 1, 1)
				p.RecvValue(other, 2)
			} else {
				p.RecvValue(other, 1)
				p.SendValue(other, 2, 1)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// MachinePingPongFederatedPriced measures the round trip across a priced
// federation link: the per-link cost lookup (the hierarchical half of the
// cost model) on top of the federated delivery path. The virtual prices
// differ from MachinePingPongFederated; the host-side cost should not.
func MachinePingPongFederatedPriced(b *testing.B) {
	b.ReportAllocs()
	cost := machine.CostModel{Latency: 1e-6, BytePeriod: 1e-9}.WithInterNode(4, 8)
	m := core.MustSystem(core.Grid(2), core.Transport("federated"), core.Nodes(2),
		core.Cost(cost)).Machine
	b.ResetTimer()
	err := m.Run(func(p *machine.Proc) error {
		other := 1 - p.Rank()
		for i := 0; i < b.N; i++ {
			if p.Rank() == 0 {
				p.SendValue(other, 1, 1)
				p.RecvValue(other, 2)
			} else {
				p.RecvValue(other, 1)
				p.SendValue(other, 2, 1)
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// HaloExchange2D measures one ghost exchange of a 256x256 block array on a
// 2x2 grid.
func HaloExchange2D(b *testing.B) {
	b.ReportAllocs()
	sys := core.MustSystem(core.Grid(2, 2), core.Cost(machine.ZeroComm()))
	_, err := sys.Run(func(c *kf.Ctx) error {
		a := c.NewArray(darray.Spec{
			Extents: []int{256, 256},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
			Halo:    []int{1, 1},
		})
		a.Fill(func(idx []int) float64 { return 1 })
		for i := 0; i < b.N; i++ {
			a.ExchangeHalo(c.NextScope())
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// JacobiKF1Iteration measures one KF1 Jacobi iteration, n=64 on a 2x2
// grid.
func JacobiKF1Iteration(b *testing.B) {
	b.ReportAllocs()
	x0, f := jacobi.Problem(64)
	b.ResetTimer()
	sys := core.MustSystem(core.Grid(2, 2), core.Cost(machine.ZeroComm()))
	if _, err := jacobi.KF1(sys.Machine, sys.Procs, x0, f, b.N); err != nil {
		b.Fatal(err)
	}
}

// E4ADI measures the full ADI experiment (claim E4).
func E4ADI(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.E4ADI()
	}
}

// Jacobi64Proc measures one KF1 Jacobi iteration at 64 simulated
// processors (8x8 grid, n=128): the host-side cost of the sharded mailbox
// layer plus schedule replay well past the paper's machine sizes.
func Jacobi64Proc(b *testing.B) {
	b.ReportAllocs()
	x0, f := jacobi.Problem(128)
	b.ResetTimer()
	sys := core.MustSystem(core.Grid(8, 8), core.Cost(machine.ZeroComm()))
	if _, err := jacobi.KF1(sys.Machine, sys.Procs, x0, f, b.N); err != nil {
		b.Fatal(err)
	}
}

// Jacobi256Proc measures a short KF1 Jacobi run (2 iterations, n=256) at
// 256 simulated processors on the federated transport (4 nodes of 64): the
// scaling target of the transport layer. Unlike the per-iteration
// benchmarks, each op is one whole fixed-size run — machine construction
// included — so allocs/op does not depend on b.N and the snapshot gate can
// hold it steady across machines.
func Jacobi256Proc(b *testing.B) {
	b.ReportAllocs()
	x0, f := jacobi.Problem(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := core.MustSystem(core.Grid(16, 16), core.Transport("federated"), core.Nodes(4),
			core.Cost(machine.ZeroComm()))
		if _, err := jacobi.KF1(sys.Machine, sys.Procs, x0, f, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// Jacobi1024ProcPriced measures a short KF1 Jacobi run (1 iteration,
// n=256) at 1024 simulated processors on a 16-node federation under a
// hierarchical cost model — the S3 scaling target with per-link pricing on
// every send, driven by the calendar executor over one pooled system. Each
// op is one whole fixed-size run on the warmed system: repeated runs reuse
// the machine, the root contexts, the distributed arrays and the compiled
// sweep headers, so allocs/op is b.N-independent and counts only what a run
// inherently costs.
func Jacobi1024ProcPriced(b *testing.B) {
	b.ReportAllocs()
	x0, f := jacobi.Problem(256)
	cost := machine.CostModel{Latency: 1e-6, BytePeriod: 1e-9}.WithInterNode(4, 8)
	sys := core.MustSystem(core.Grid(32, 32), core.Transport("federated"), core.Nodes(16),
		core.Cost(cost), core.Executor("calendar"))
	// Two warm runs: the first builds the declarations, the second leaves
	// the buffer pools as every timed op finds them.
	for i := 0; i < 2; i++ {
		if _, err := jacobi.KF1(sys.Machine, sys.Procs, x0, f, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jacobi.KF1(sys.Machine, sys.Procs, x0, f, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// Jacobi1024ProcIPC4Node measures a whole distributed KF1 Jacobi run (1
// iteration, n=256) at 1024 simulated processors executed inside 4 ipc
// worker processes: each node's 256 ranks run as a calendar-driven
// sub-machine in its worker, and the coordinator's sockets carry only the
// genuinely inter-node halo edges (batched per flush). The gap to
// Jacobi1024ProcPriced is the real price of crossing process boundaries
// for the same machine shape; each op is one whole run on the warmed
// system, fleet spawn excluded.
func Jacobi1024ProcIPC4Node(b *testing.B) {
	b.ReportAllocs()
	prog, err := progs.Jacobi(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	sys := core.MustSystem(core.Grid(32, 32), core.Transport("ipc"), core.Nodes(4),
		core.Cost(machine.ZeroComm()), core.Executor("calendar"))
	defer sys.Close()
	// Two warm runs: spawn the worker fleet and let each worker's
	// sub-machine build its declarations, so every timed op is a pure
	// cache hit on both sides of the sockets.
	for i := 0; i < 2; i++ {
		if _, err := sys.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// Jacobi16384Proc measures one KF1 Jacobi run (1 iteration, n=256) at 16384
// simulated processors — the 100k-virtual-processor regime's doorstep, far
// past any host's core count — multiplexed by the calendar executor over a
// bounded worker pool on the shared transport. Pooled like
// Jacobi1024ProcPriced: each op is one whole run on the warmed system.
func Jacobi16384Proc(b *testing.B) {
	b.ReportAllocs()
	x0, f := jacobi.Problem(256)
	sys := core.MustSystem(core.Grid(128, 128), core.Cost(machine.ZeroComm()),
		core.Executor("calendar"))
	// Two warm runs, as in Jacobi1024ProcPriced: every timed op is a pure
	// cache hit.
	for i := 0; i < 2; i++ {
		if _, err := jacobi.KF1(sys.Machine, sys.Procs, x0, f, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := jacobi.KF1(sys.Machine, sys.Procs, x0, f, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// serveJacobiBench is the shared setup for the serve-path pair below: the
// registry Jacobi program on the repository's standard 8x8 grid, executed
// distributed inside 4 ipc worker processes — the configuration a kfserve
// tenant requesting {"program": "jacobi", "grid": [8,8], "transport":
// "ipc", "nodes": 4} lands on.
func serveJacobiBench(b *testing.B) (*core.Program, string, func() (*core.System, error)) {
	prog, err := progs.Jacobi(8, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := core.Spec{Grid: []int{8, 8}, Transport: "ipc", Nodes: 4}.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	return prog, spec.Key(), spec.Build
}

// ServeWarmJacobi8x8 measures one request on kfserve's warm path: an
// exclusive pool checkout that hits a warmed System, one distributed
// Jacobi run inside the resident ipc worker fleet, and the return that
// files the System back as most-recently-used. The gap to
// ServeColdJacobi8x8 is what the pool saves every request: respawning the
// worker processes and rebuilding machine, transport and plan caches.
func ServeWarmJacobi8x8(b *testing.B) {
	b.ReportAllocs()
	prog, key, build := serveJacobiBench(b)
	pool := serve.NewPool(1)
	defer pool.Close()
	// Warm off the clock: the first checkout builds and the next two runs
	// settle the worker-side run caches, so every timed op is a pool hit.
	for i := 0; i < 3; i++ {
		lease, err := pool.Checkout(key, build)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lease.Sys.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
		lease.Return()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lease, err := pool.Checkout(key, build)
		if err != nil {
			b.Fatal(err)
		}
		if !lease.Hit() {
			b.Fatal("warm bench missed the pool")
		}
		if _, err := lease.Sys.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
		lease.Return()
	}
}

// ServeColdJacobi8x8 measures the same request without the pool's help —
// the cold-construct-per-request baseline a server with no System reuse
// pays: every checkout misses, builds a fresh System (for ipc, spawning 4
// worker processes), runs once, and discards it (closing the fleet). The
// warm/cold ratio is the pool's amortization, recorded side by side in the
// perf snapshots.
func ServeColdJacobi8x8(b *testing.B) {
	b.ReportAllocs()
	prog, key, build := serveJacobiBench(b)
	pool := serve.NewPool(1)
	defer pool.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lease, err := pool.Checkout(key, build)
		if err != nil {
			b.Fatal(err)
		}
		if lease.Hit() {
			b.Fatal("cold bench hit the pool")
		}
		if _, err := lease.Sys.RunProgram(prog); err != nil {
			b.Fatal(err)
		}
		lease.Discard()
	}
}

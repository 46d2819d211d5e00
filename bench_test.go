// Package repro's benchmark harness: BenchmarkSuite runs each reproduced
// paper artifact (`kfbench -list` is the index) as a sub-benchmark, beside
// microbenchmarks of the substrate layers. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"testing"

	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/fft"
	"repro/internal/imaging"
	"repro/internal/jacobi"
	"repro/internal/kernels"
	"repro/internal/kf"
	"repro/internal/linalg"
	"repro/internal/machine"
	"repro/internal/multigrid"
	"repro/internal/spline"
	"repro/internal/topology"
	"repro/internal/tridiag"
)

// BenchmarkSuite runs every experiment of the suite (figures, claims,
// ablations and the scaling rows) once per iteration, as kfbench does.
func BenchmarkSuite(b *testing.B) {
	for _, e := range experiments.Suite() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := e.Run(core.Spec{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate microbenchmarks ---

// pingPong runs n simulated message round trips between ranks 0 and 1 of
// m.
func pingPong(b *testing.B, m *machine.Machine, n int) {
	err := m.Run(func(p *machine.Proc) error {
		other := 1 - p.Rank()
		for i := 0; i < n; i++ {
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

// BenchmarkMachinePingPong measures the host cost of one simulated message
// round trip (mailbox, virtual clocks, tracing off).
func BenchmarkMachinePingPong(b *testing.B) {
	b.ReportAllocs()
	m := core.MustSystem(core.Grid(2), core.Cost(machine.ZeroComm())).Machine
	b.ResetTimer()
	pingPong(b, m, b.N)
}

// BenchmarkMachinePingPongFederated measures the same round trip across a
// federation link (two nodes of one processor each: per-node mailbox plus
// link counters).
func BenchmarkMachinePingPongFederated(b *testing.B) {
	b.ReportAllocs()
	m := core.MustSystem(core.Grid(2), core.Transport("federated"), core.Nodes(2),
		core.Cost(machine.ZeroComm())).Machine
	b.ResetTimer()
	pingPong(b, m, b.N)
}

// BenchmarkMachinePingPongFederatedPriced adds the hierarchical cost
// model's per-link price lookup to the federated round trip. The virtual
// prices differ from the flat link's; the host-side cost should not.
func BenchmarkMachinePingPongFederatedPriced(b *testing.B) {
	b.ReportAllocs()
	cost := machine.CostModel{Latency: 1e-6, BytePeriod: 1e-9}.WithInterNode(4, 8)
	m := core.MustSystem(core.Grid(2), core.Transport("federated"), core.Nodes(2),
		core.Cost(cost)).Machine
	b.ResetTimer()
	pingPong(b, m, b.N)
}

// BenchmarkMachinePingPongIPC measures the round trip where the delivery
// crosses two OS processes: each message is framed, written to a node
// worker's Unix socket, reflected back and decoded into a pooled buffer.
// The gap to BenchmarkMachinePingPongFederated is the price of the process
// boundary.
func BenchmarkMachinePingPongIPC(b *testing.B) {
	b.ReportAllocs()
	sys := core.MustSystem(core.Grid(2), core.Transport("ipc"), core.Nodes(2),
		core.Cost(machine.ZeroComm()))
	defer sys.Close()
	pingPong(b, sys.Machine, 64) // spawn the workers and warm the pools
	b.ResetTimer()
	pingPong(b, sys.Machine, b.N)
}

// BenchmarkHaloExchange2D measures one ghost exchange of a 256x256 block
// array on a 2x2 grid.
func BenchmarkHaloExchange2D(b *testing.B) {
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

// BenchmarkThomas measures the sequential kernel on 1024 rows.
func BenchmarkThomas(b *testing.B) {
	n := 1024
	bb := make([]float64, n)
	aa := make([]float64, n)
	cc := make([]float64, n)
	ff := make([]float64, n)
	xx := make([]float64, n)
	for i := range aa {
		bb[i], aa[i], cc[i], ff[i] = -1, 4, -1, float64(i%7)
	}
	bb[0], cc[n-1] = 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.Thomas(nil, bb, aa, cc, ff, xx)
	}
}

// BenchmarkTriParallel8 measures a full substructured solve, n=1024 on 8
// simulated processors (host time; the virtual time is E2's subject).
func BenchmarkTriParallel8(b *testing.B) {
	const p, n = 8, 1024
	f := make([]float64, n)
	for i := range f {
		f[i] = float64(i % 11)
	}
	for i := 0; i < b.N; i++ {
		m := machine.New(p, machine.ZeroComm())
		g := topology.New1D(p)
		err := kf.Exec(m, g, func(ctx *kf.Ctx) error {
			fa := ctx.NewArray(darray.Spec{Extents: []int{n}, Dists: []dist.Dist{dist.Block{}}})
			fa.Fill(func(idx []int) float64 { return f[idx[0]] })
			x := ctx.NewArray(darray.Spec{Extents: []int{n}, Dists: []dist.Dist{dist.Block{}}})
			return tridiag.TriC(ctx, x, fa, -1, 4, -1)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJacobiKF1Iteration measures one KF1 Jacobi iteration, n=64 on a
// 2x2 grid.
func BenchmarkJacobiKF1Iteration(b *testing.B) {
	b.ReportAllocs()
	x0, f := jacobi.Problem(64)
	b.ResetTimer()
	sys := core.MustSystem(core.Grid(2, 2), core.Cost(machine.ZeroComm()))
	if _, err := jacobi.KF1(sys.Machine, sys.Procs, x0, f, b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJacobi64Proc measures one KF1 Jacobi iteration at 64 simulated
// processors (8x8 grid, n=128).
func BenchmarkJacobi64Proc(b *testing.B) {
	b.ReportAllocs()
	x0, f := jacobi.Problem(128)
	b.ResetTimer()
	sys := core.MustSystem(core.Grid(8, 8), core.Cost(machine.ZeroComm()))
	if _, err := jacobi.KF1(sys.Machine, sys.Procs, x0, f, b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkJacobi256Proc measures a short KF1 Jacobi run (2 iterations,
// n=256) at 256 simulated processors on the federated transport (4 nodes of
// 64), machine construction included.
func BenchmarkJacobi256Proc(b *testing.B) {
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

// BenchmarkFFT64 measures the distributed transform, n=64 on 4 simulated
// processors.
func BenchmarkFFT64(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := machine.New(4, machine.ZeroComm())
		g := topology.New1D(4)
		err := kf.Exec(m, g, func(c *kf.Ctx) error {
			d := fft.NewData(c, 64, func(i int) complex128 {
				return complex(float64(i%7), float64(i%3))
			})
			_, err := fft.Transform(c, d)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSplineFit128 measures the distributed spline fit, 128 knots on
// 8 simulated processors.
func BenchmarkSplineFit128(b *testing.B) {
	y := make([]float64, 128)
	for i := range y {
		y[i] = float64(i%13) - 6
	}
	for i := 0; i < b.N; i++ {
		m := machine.New(8, machine.ZeroComm())
		g := topology.New1D(8)
		err := kf.Exec(m, g, func(c *kf.Ctx) error {
			yd := c.NewArray(darray.Spec{Extents: []int{128}, Dists: []dist.Dist{dist.Block{}}, Halo: []int{1}})
			yd.Fill(func(idx []int) float64 { return y[idx[0]] })
			_, err := spline.FitParallel(c, 0, 0.1, yd)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmooth64 measures the separable blur of a 64x64 image on a 2x2
// grid.
func BenchmarkSmooth64(b *testing.B) {
	kern := imaging.Binomial(2)
	for i := 0; i < b.N; i++ {
		m := machine.New(4, machine.ZeroComm())
		g := topology.New(2, 2)
		err := kf.Exec(m, g, func(c *kf.Ctx) error {
			spec := darray.Spec{
				Extents: []int{64, 64},
				Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
				Halo:    []int{2, 2},
			}
			in := c.NewArray(spec)
			out := c.NewArray(spec)
			in.Fill(func(idx []int) float64 { return float64((idx[0] + idx[1]) % 5) })
			out.Zero()
			return imaging.Smooth(c, in, out, kern)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLUCyclic96 measures the distributed LU factorization under the
// cyclic column distribution.
func BenchmarkLUCyclic96(b *testing.B) {
	const n = 96
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				a[i*n+j] = float64(n)
			} else {
				a[i*n+j] = 1 / float64(1+(i+j)%7)
			}
		}
	}
	for i := 0; i < b.N; i++ {
		m := machine.New(4, machine.ZeroComm())
		g := topology.New1D(4)
		err := kf.Exec(m, g, func(c *kf.Ctx) error {
			ad := c.NewArray(darray.Spec{
				Extents: []int{n, n},
				Dists:   []dist.Dist{dist.Star{}, dist.Cyclic{}},
			})
			ad.Fill(func(idx []int) float64 { return a[idx[0]*n+idx[1]] })
			return linalg.LU(c, ad)
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMG3Cycle measures one 16^3 MG3 V-cycle on a 2x2 grid.
func BenchmarkMG3Cycle(b *testing.B) {
	const n = 16
	m := machine.New(4, machine.ZeroComm())
	g := topology.New(2, 2)
	err := kf.Exec(m, g, func(c *kf.Ctx) error {
		spec := darray.Spec{
			Extents: []int{n + 1, n + 1, n + 1},
			Dists:   []dist.Dist{dist.Star{}, dist.Block{}, dist.Block{}},
			Halo:    []int{0, 1, 1},
		}
		u := c.NewArray(spec)
		f := c.NewArray(spec)
		u.Zero()
		f.Fill(func(idx []int) float64 { return float64((idx[0] + idx[1] + idx[2]) % 3) })
		par := multigrid.Default3D(n, n, n)
		for i := 0; i < b.N; i++ {
			multigrid.Cycle3(c, u, f, par)
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// Package repro's benchmark harness: one benchmark per reproduced paper
// artifact (figures F1-F5, claims E1-E9; `kfbench -list` is the index, README
// "Running the paper's experiments" the guide), plus microbenchmarks of the
// substrate layers. Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"testing"

	"repro/internal/benchkit"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/fft"
	"repro/internal/imaging"
	"repro/internal/kernels"
	"repro/internal/kf"
	"repro/internal/linalg"
	"repro/internal/machine"
	"repro/internal/multigrid"
	"repro/internal/spline"
	"repro/internal/topology"
	"repro/internal/tridiag"
)

// --- paper artifacts: figures ---

func BenchmarkF1FirstReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.F1FirstReduction()
	}
}

func BenchmarkF2FourRowReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.F2FourRowReduction()
	}
}

func BenchmarkF3DataflowTrace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.F3Dataflow()
	}
}

func BenchmarkF4Substitution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.F4Substitution()
	}
}

func BenchmarkF5Mapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.F5Mapping()
	}
}

// --- paper artifacts: measured claims ---

func BenchmarkE1Jacobi(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E1Jacobi()
	}
}

func BenchmarkE2Tri(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E2Tri()
	}
}

func BenchmarkE3Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E3Pipeline()
	}
}

func BenchmarkE4ADI(b *testing.B) { benchkit.E4ADI(b) }

func BenchmarkE5MADIvsADI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E5MADI()
	}
}

func BenchmarkE6Multigrid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E6Multigrid()
	}
}

func BenchmarkE7Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E7Distribution()
	}
}

func BenchmarkE8CodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E8CodeSize()
	}
}

func BenchmarkE9InspectorExecutor(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E9Inspector()
	}
}

// --- substrate microbenchmarks ---

// BenchmarkMachinePingPong measures the host cost of one simulated message
// round trip (mailbox, virtual clocks, tracing off).
func BenchmarkMachinePingPong(b *testing.B) { benchkit.MachinePingPong(b) }

// BenchmarkMachinePingPongFederated measures the same round trip across a
// federation link (per-node mailbox + link counters).
func BenchmarkMachinePingPongFederated(b *testing.B) { benchkit.MachinePingPongFederated(b) }

// BenchmarkMachinePingPongFederatedPriced adds the hierarchical cost
// model's per-link price lookup to the federated round trip.
func BenchmarkMachinePingPongFederatedPriced(b *testing.B) {
	benchkit.MachinePingPongFederatedPriced(b)
}

// BenchmarkHaloExchange2D measures one ghost exchange of a 256x256 block
// array on a 2x2 grid.
func BenchmarkHaloExchange2D(b *testing.B) { benchkit.HaloExchange2D(b) }

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
func BenchmarkJacobiKF1Iteration(b *testing.B) { benchkit.JacobiKF1Iteration(b) }

// BenchmarkJacobi64Proc and BenchmarkJacobi256Proc measure one KF1 Jacobi
// iteration at 64 (shared transport) and 256 (federated transport)
// simulated processors.
func BenchmarkJacobi64Proc(b *testing.B)  { benchkit.Jacobi64Proc(b) }
func BenchmarkJacobi256Proc(b *testing.B) { benchkit.Jacobi256Proc(b) }

// BenchmarkJacobi1024ProcPriced measures a whole fixed-work Jacobi run at
// 1024 simulated processors on a 16-node federation with per-link pricing,
// pooled and driven by the calendar executor.
func BenchmarkJacobi1024ProcPriced(b *testing.B) { benchkit.Jacobi1024ProcPriced(b) }

// BenchmarkJacobi1024ProcIPC4Node measures a whole fixed-work Jacobi run at
// 1024 simulated processors executed inside 4 ipc worker processes, sockets
// carrying only the inter-node halo edges.
func BenchmarkJacobi1024ProcIPC4Node(b *testing.B) { benchkit.Jacobi1024ProcIPC4Node(b) }

// BenchmarkJacobi16384Proc measures a whole fixed-work Jacobi run at 16384
// simulated processors multiplexed over the calendar executor's worker pool.
func BenchmarkJacobi16384Proc(b *testing.B) { benchkit.Jacobi16384Proc(b) }

// BenchmarkServeWarmJacobi8x8 and BenchmarkServeColdJacobi8x8 measure one
// kfserve request with and without the warmed-System pool: checkout, one
// distributed Jacobi run inside 4 ipc workers, return — versus spawning
// and discarding the worker fleet every request. Their ratio is what the
// pool amortizes.
func BenchmarkServeWarmJacobi8x8(b *testing.B) { benchkit.ServeWarmJacobi8x8(b) }
func BenchmarkServeColdJacobi8x8(b *testing.B) { benchkit.ServeColdJacobi8x8(b) }

func BenchmarkA1MappingAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.A1Mapping()
	}
}

func BenchmarkA2Estimator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.A2Estimator()
	}
}

func BenchmarkA3CyclicLU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.A3Cyclic()
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

package spline

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/topology"
)

func TestInterpolatesKnotsExactly(t *testing.T) {
	y := []float64{1, -2, 3, 0.5, 4, -1, 2}
	s := Fit(0, 0.5, y)
	for i, v := range y {
		x := 0.5 * float64(i)
		if d := math.Abs(s.Eval(x) - v); d > 1e-12 {
			t.Errorf("knot %d: eval %v, want %v", i, s.Eval(x), v)
		}
	}
}

func TestReproducesLinearFunctions(t *testing.T) {
	const n = 12
	y := make([]float64, n)
	for i := range y {
		y[i] = 3*float64(i)*0.25 - 7
	}
	s := Fit(0, 0.25, y)
	for x := 0.0; x <= 0.25*float64(n-1); x += 0.01 {
		want := 3*x - 7
		if d := math.Abs(s.Eval(x) - want); d > 1e-10 {
			t.Fatalf("x=%v: eval %v, want %v", x, s.Eval(x), want)
		}
	}
}

func TestApproximatesSmoothFunction(t *testing.T) {
	const n = 64
	h := math.Pi / float64(n-1)
	y := make([]float64, n)
	for i := range y {
		y[i] = math.Sin(h * float64(i))
	}
	s := Fit(0, h, y)
	worst := 0.0
	for x := 0.3; x < math.Pi-0.3; x += 0.01 {
		if d := math.Abs(s.Eval(x) - math.Sin(x)); d > worst {
			worst = d
		}
	}
	// Natural cubic spline error away from the ends is O(h^4).
	if worst > 1e-5 {
		t.Errorf("interior error %v", worst)
	}
}

func TestKnotResidualSmall(t *testing.T) {
	f := func(seed int64) bool {
		n := 16
		y := make([]float64, n)
		s := uint64(seed)
		for i := range y {
			s = s*2654435761 + 12345
			y[i] = float64(s%1000)/100 - 5
		}
		sp := Fit(0, 1, y)
		return sp.MaxKnotResidual() < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	const n = 64
	h := 1.0 / float64(n-1)
	y := make([]float64, n)
	for i := range y {
		x := h * float64(i)
		y[i] = math.Exp(-x) * math.Cos(6*x)
	}
	want := Fit(0, h, y)
	for _, p := range []int{2, 4, 8} {
		m := machine.New(p, machine.ZeroComm())
		g := topology.New1D(p)
		var got *Spline
		err := kf.Exec(m, g, func(c *kf.Ctx) error {
			yd := c.NewArray(darray.Spec{
				Extents: []int{n},
				Dists:   []dist.Dist{dist.Block{}},
				Halo:    []int{1},
			})
			yd.Fill(func(idx []int) float64 { return y[idx[0]] })
			s, err := FitParallel(c, 0, h, yd)
			if err != nil {
				return err
			}
			// The fit is returned on the root only.
			if c.GridIndex() == 0 {
				got = s
			} else if s.M != nil || s.Y != nil {
				t.Errorf("p=%d: grid index %d got M (%d values) and Y (%d values), want nil off the root",
					p, c.GridIndex(), len(s.M), len(s.Y))
			}
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i := range want.M {
			if d := math.Abs(got.M[i] - want.M[i]); d > 1e-9 {
				t.Errorf("p=%d: M[%d] differs by %v", p, i, d)
			}
		}
	}
}

func TestFitPanicsOnTinyInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("2-knot fit did not panic")
		}
	}()
	Fit(0, 1, []float64{1, 2})
}

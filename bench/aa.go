package main

import (
	"fmt"
	"math"
	"os"
	"slices"
)

// runAA is the benchmark checking itself: the suite is run twice from the
// same binary, the second time in reverse workload order, and the two are
// held to the rules a real parent-versus-change comparison is held to —
// every end-to-end metric of every workload within its bound, every exact
// metric equal to the last bit. The differences it prints are the noise
// floor the bounds in spec.go and BENCHMARK.json were fixed against.
func runAA(names []string, opts runOptions) (bool, error) {
	first, err := runSuite(names, opts)
	if err != nil {
		return false, err
	}
	reversed := slices.Clone(names)
	slices.Reverse(reversed)
	second, err := runSuite(reversed, opts)
	if err != nil {
		return false, err
	}
	slices.Reverse(second)

	ok := true
	fmt.Fprintf(os.Stdout, "\n== A/A: two suites of the same binary (seed %d)\n", opts.seed)
	for i, a := range first {
		b := second[i]
		fmt.Fprintf(os.Stdout, "%s\n", a.Workload)
		if !a.Correct || !b.Correct {
			ok = false
			fmt.Fprintf(os.Stdout, "   FAIL a run was not correct\n")
		}
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Abs(va-vb) / math.Min(va, vb)
			verdict := "ok"
			if !(diff <= d.Bound) {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(os.Stdout, "   %-30s %12.6g %12.6g %-6s differ %5.1f%%  bound %4.0f%%  %s\n",
				d.Name, va, vb, d.Unit, 100*diff, 100*d.Bound, verdict)
		}
		for _, name := range exactMetrics {
			va, vb := a.Metrics[name], b.Metrics[name]
			if va.Value != vb.Value {
				ok = false
				fmt.Fprintf(os.Stdout, "   %-30s %.17g != %.17g %s  FAIL must be equal\n", name, va.Value, vb.Value, va.Unit)
			}
		}
	}
	if ok {
		fmt.Fprintf(os.Stdout, "A/A ok: every end-to-end metric within its bound, every exact metric equal\n")
	}
	return ok, nil
}

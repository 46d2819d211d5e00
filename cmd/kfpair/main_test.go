package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// fakeMetrics are the fake bench's metrics: a level, the relative noise
// of one run, and the change side's known effect.
var fakeMetrics = []struct {
	name, better         string
	level, noise, effect float64
	want                 string // the verdict's prefix
}{
	{"gain_ms", "lower", 100, 0.02, -0.15, "resolved-better"},
	{"loss_ms", "lower", 50, 0.02, +0.10, "resolved-worse"},
	{"rate", "higher", 1000, 0.02, +0.12, "resolved-better"},
	{"flat_mb", "lower", 80, 0.05, 0, "unresolved-below-"},
	{"small", "higher", 10, 0.05, +0.01, "unresolved-below-"},
}

// TestFakeBench is not a test of its own. Run as a child of
// TestPairedVerdicts with "side pair seed" after "--", it is a bench
// whose report's metrics are seeded noise around the known effects, on a
// guest that slows by 1 % with every run of the series.
func TestFakeBench(t *testing.T) {
	args := flag.Args()
	if len(args) != 3 {
		t.Skip("the fake bench runs only as a child of TestPairedVerdicts")
	}
	var v [3]int
	for i, a := range args {
		v[i], _ = strconv.Atoi(a)
	}
	side, pair, seed := v[0], v[1], v[2]
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(2*pair+side)))
	run := 2*pair + (side+pair)%2 // the run's place in the series
	metrics := map[string]any{}
	for _, m := range fakeMetrics {
		x := m.level * (1 + 0.01*float64(run)) * (1 + m.noise*rng.NormFloat64())
		if m.better == "higher" {
			x = m.level / (1 + 0.01*float64(run)) * (1 + m.noise*rng.NormFloat64())
		}
		if side == 1 {
			x *= 1 + m.effect
		}
		metrics[m.name] = map[string]any{"value": x, "unit": "u"}
	}
	line, _ := json.Marshal(map[string]any{"correct": true, "attempted": 10, "failed": side, "metrics": metrics})
	fmt.Printf("a table for people\n\n%s\n", line)
	os.Exit(0)
}

// TestPairedVerdicts drives the pairing and the table with the fake bench
// over ten pairs: every known effect gets its verdict, in spite of a drift
// (20 % over the series) larger than any of them, and the ops each side
// failed are summed.
func TestPairedVerdicts(t *testing.T) {
	better := map[string]string{}
	for _, m := range fakeMetrics {
		better[m.name] = m.better
	}
	runs, err := runPairs(10, func(side, pair int) *exec.Cmd {
		return exec.Command(os.Args[0], "-test.run=^TestFakeBench$", "--", fmt.Sprint(side), fmt.Sprint(pair), "7")
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printTable(&out, runs, better)
	t.Logf("\n%s", out.String())
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Split(line, " | "); len(f) == 9 {
			rows[strings.Fields(strings.TrimPrefix(f[0], "| "))[0]] = strings.TrimSuffix(f[8], " |")
		}
	}
	for _, m := range fakeMetrics {
		if got := rows[m.name]; !strings.HasPrefix(got, m.want) {
			t.Errorf("%s (effect %+.0f %%, noise %.0f %%): verdict %q, want %s…", m.name, 100*m.effect, 100*m.noise, got, m.want)
		}
	}
	if !strings.Contains(out.String(), "ops failed: base 0 of 100, change 10 of 100") {
		t.Error("the failed ops are not summed per side")
	}
}

// TestDetectableEffect: the detectable effect of a metric without effect
// follows its noise, and the interval of ten pairs is the sign test's
// second order statistics from each end.
func TestDetectableEffect(t *testing.T) {
	if k, conf := signRank(10); k != 2 || math.Abs(conf-(1-22.0/1024)) > 1e-12 {
		t.Errorf("signRank(10) = %d, %v; want 2, %v", k, conf, 1-22.0/1024)
	}
	if k, conf := signRank(5); k != 1 || conf != 1-2.0/32 {
		t.Errorf("signRank(5) = %d, %v; want 1, %v", k, conf, 1-2.0/32)
	}
	for _, noise := range []float64{0.01, 0.04} {
		rng := rand.New(rand.NewPCG(1, 2))
		var base, change []float64
		for range 10 {
			base = append(base, 100*(1+noise*rng.NormFloat64()))
			change = append(change, 100*(1+noise*rng.NormFloat64()))
		}
		v := judge(base, change, true)
		// Paired differences have sqrt(2) times one run's noise.
		if sd := 100 * noise * math.Sqrt2; v.mde < sd/4 || v.mde > 2*sd || v.resolved != 0 {
			t.Errorf("noise %.0f %%: detectable effect %.2f %% (verdict %v), want unresolved within [%.2f, %.2f] %%",
				100*noise, v.mde, v, sd/4, 2*sd)
		}
	}
}

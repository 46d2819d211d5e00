// Command kfpair compares two revisions of the repository on one workload
// of the repository's benchmark (bench/), in alternating pairs of runs,
// and prints a paired verdict per end-to-end metric.
//
// Usage:
//
//	kfpair -base <rev> -change <rev|dir> -workload w [-pairs 10] [-seconds 10] [-seed 1]
//
// Each revision is exported with `git archive <rev> | tar -x` into a
// temporary directory (a directory given as -change is used as it is), and
// its ./bench is built there once, offline, with -trimpath, so that the
// binary does not depend on the directory it was built in. The header
// prints each binary's SHA-256 and says when the two are identical: then
// the series is an A/A of one binary. Pair i runs both binaries with
// `-workload w -seed s -seconds t -trace 0`, the base first in even pairs
// and the change first in odd ones, and reads each run's last line of
// standard output: the JSON object the bench ends its report with. A run
// that exits non-zero or reports an incorrect result stops the comparison;
// the ops each side failed are summed under the table.
//
// The table has one row per end-to-end metric of the base's
// BENCHMARK.json:
//
//   - each side's median and quartiles;
//   - the median of the paired differences change - base, in percent of
//     the base's median;
//   - a distribution-free interval for that median (the sign test's order
//     statistics, at the confidence the header states: 97.9 % at 10 pairs);
//   - the pairs the change won, ties counting for neither side;
//   - the minimum detectable effect: the interval's half width, in percent
//     of the base's median — a shift smaller than that is not one this
//     set of runs can tell from noise;
//   - the gap between the two medians in units of the base's
//     interquartile range: a claimed gain must also exceed that spread;
//   - the verdict: resolved-better (or resolved-worse) when the whole
//     interval lies on that side of zero, else unresolved-below the
//     detectable effect.
//
// Alternating the order cancels a drift of the guest's speed within a
// series: a drift widens the interval instead of moving the median.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	base := flag.String("base", "", "revision of the base side")
	change := flag.String("change", "", "revision, or directory, of the changed side")
	workload := flag.String("workload", "", "the bench workload to run")
	pairs := flag.Int("pairs", 10, "pairs of runs")
	seconds := flag.Float64("seconds", 10, "the timed pass of each run, in seconds")
	seed := flag.Int64("seed", 1, "seed of the workload's random inputs")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("kfpair: ")
	if *base == "" || *change == "" || *workload == "" || *pairs < 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	work, err := os.MkdirTemp("", "kfpair")
	if err != nil {
		log.Fatal(err)
	}
	err = compare(os.Stdout, work, *base, *change, *workload, *pairs, *seconds, *seed)
	os.RemoveAll(work)
	if err != nil {
		log.Fatal(err)
	}
}

// compare builds both sides under work, runs the pairs and prints the
// table.
func compare(w io.Writer, work, base, change, workload string, pairs int, seconds float64, seed int64) error {
	var bins, sums [2]string
	var better map[string]string
	for i, rev := range []string{base, change} {
		tree, err := export(work, fmt.Sprint("side", i), rev)
		if err != nil {
			return err
		}
		if i == 0 {
			if better, err = directions(filepath.Join(tree, "BENCHMARK.json")); err != nil {
				return err
			}
		}
		bins[i] = filepath.Join(work, fmt.Sprint("bench", i))
		log.Printf("building %s", rev)
		if sums[i], err = build(tree, bins[i]); err != nil {
			return fmt.Errorf("building %s: %w", rev, err)
		}
	}
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", "0"}
	runs, err := runPairs(pairs, func(side, pair int) *exec.Cmd { return exec.Command(bins[side], args...) })
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s, %d pairs of -seconds %g, seed %d: base %s, change %s\n\n", workload, pairs, seconds, seed, base, change)
	fmt.Fprintf(w, "bench sha256: base %s, change %s%s\n\n", sums[0], sums[1], sameBinary(sums))
	printTable(w, runs, better)
	return nil
}

// build builds tree's ./bench into out with -trimpath and returns the
// binary's SHA-256, in hex.
func build(tree, out string) (string, error) {
	cmd := exec.Command("go", "build", "-trimpath", "-buildvcs=false", "-o", out, "./bench")
	cmd.Dir, cmd.Stderr = tree, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", err
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(data)), nil
}

// sameBinary is the header's note on two identical binaries.
func sameBinary(sums [2]string) string {
	if sums[0] == sums[1] {
		return " (identical: an A/A of one binary)"
	}
	return ""
}

// export returns a directory holding rev's tree: rev itself when it is a
// directory, else work/name, filled by git archive.
func export(work, name, rev string) (string, error) {
	if fi, err := os.Stat(rev); err == nil && fi.IsDir() {
		return rev, nil
	}
	dir := filepath.Join(work, name)
	if err := os.Mkdir(dir, 0o755); err != nil {
		return "", err
	}
	archive := exec.Command("git", "archive", "--format=tar", rev)
	untar := exec.Command("tar", "-x", "-C", dir)
	var stderr bytes.Buffer
	archive.Stderr = &stderr
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return "", err
	}
	untar.Stdin = pipe
	if err := archive.Start(); err != nil {
		return "", err
	}
	errUntar := untar.Run()
	if err := archive.Wait(); err != nil {
		return "", fmt.Errorf("git archive %s: %v: %s", rev, err, strings.TrimSpace(stderr.String()))
	}
	if errUntar != nil {
		return "", fmt.Errorf("extracting %s: %w", rev, errUntar)
	}
	return dir, nil
}

// directions reads the end-to-end metrics of a BENCHMARK.json: each
// metric's name and which way is better ("lower" or "higher").
func directions(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	better := make(map[string]string, len(spec.EndToEnd))
	for _, m := range spec.EndToEnd {
		better[m.Name] = m.Better
	}
	return better, nil
}

// sample is one run's report: the last line a bench run prints.
type sample struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runPairs runs pairs pairs of the two sides' commands, alternating which
// side goes first, and returns each side's samples in pair order.
func runPairs(pairs int, cmd func(side, pair int) *exec.Cmd) ([2][]sample, error) {
	var runs [2][]sample
	for pair := 0; pair < pairs; pair++ {
		var got [2]sample
		for k := 0; k < 2; k++ {
			side := (k + pair) % 2
			s, err := runOnce(cmd(side, pair))
			if err != nil {
				return runs, fmt.Errorf("pair %d, %s: %w", pair, sideName[side], err)
			}
			got[side] = s
		}
		for side := range got {
			runs[side] = append(runs[side], got[side])
		}
		log.Printf("pair %d/%d done", pair+1, pairs)
	}
	return runs, nil
}

var sideName = [2]string{"base", "change"}

// runOnce runs c and parses the last non-empty line of its output.
func runOnce(c *exec.Cmd) (sample, error) {
	var out, stderr bytes.Buffer
	c.Stdout, c.Stderr = &out, &stderr
	if err := c.Run(); err != nil {
		return sample{}, fmt.Errorf("%v: %s", err, lastLine(stderr.Bytes()))
	}
	var s sample
	if err := json.Unmarshal(lastLine(out.Bytes()), &s); err != nil {
		return s, fmt.Errorf("reading the last line: %w", err)
	}
	if !s.Correct {
		return s, errors.New("the run reports an incorrect result")
	}
	return s, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// verdict is one metric's paired comparison.
type verdict struct {
	base, change  [3]float64 // first quartile, median, third quartile
	delta, lo, hi float64    // median paired difference and its interval, % of the base's median
	wins, n       int
	mde           float64 // minimum detectable effect, %
	gap           float64 // |median change - median base| / the base's interquartile range
	resolved      int     // +1 better, -1 worse, 0 unresolved
}

// judge compares one metric's paired values; lowerBetter says which
// direction is a gain.
func judge(base, change []float64, lowerBetter bool) verdict {
	v := verdict{base: quartiles(base), change: quartiles(change), n: len(base)}
	d := make([]float64, len(base))
	for i := range base {
		d[i] = change[i] - base[i]
		if d[i] != 0 && (d[i] < 0) == lowerBetter {
			v.wins++
		}
	}
	slices.Sort(d)
	k, _ := signRank(len(d))
	scale := 100 / v.base[1]
	if v.base[1] == 0 {
		scale = 1 // no base level to scale by: absolute differences
	}
	lo, hi := d[k-1], d[len(d)-k]
	v.delta, v.lo, v.hi, v.mde = quantile(d, 0.5)*scale, lo*scale, hi*scale, (hi-lo)/2*scale
	v.gap = math.Abs(v.change[1]-v.base[1]) / (v.base[2] - v.base[0])
	switch {
	case lo > 0 && !lowerBetter, hi < 0 && lowerBetter:
		v.resolved = 1
	case lo > 0, hi < 0:
		v.resolved = -1
	}
	return v
}

// signRank returns the order statistic k whose pair d_(k), d_(n+1-k) of n
// sorted paired differences bounds their median with at least 95 %
// confidence under the sign test (k = 1 when no k reaches it), and that
// interval's confidence.
func signRank(n int) (int, float64) {
	k, tail, below := 1, 0.0, 0.0 // below: P(B <= k-1) for B ~ Binomial(n, 1/2)
	c := 1.0                      // C(n, j)
	for j := 0; j < n; j++ {
		below += c / math.Exp2(float64(n))
		if 2*below > 0.05 {
			break
		}
		k, tail = j+1, below
		c = c * float64(n-j) / float64(j+1)
	}
	if tail == 0 {
		tail = 1 / math.Exp2(float64(n))
	}
	return k, 1 - 2*tail
}

// quartiles returns the first quartile, median and third quartile of xs.
func quartiles(xs []float64) [3]float64 {
	s := slices.Sorted(slices.Values(xs))
	return [3]float64{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// quantile interpolates linearly between the closest ranks of sorted s.
func quantile(s []float64, p float64) float64 {
	pos := p * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func (v verdict) String() string {
	switch v.resolved {
	case 1:
		return "resolved-better"
	case -1:
		return "resolved-worse"
	}
	return fmt.Sprintf("unresolved-below-%.1f%%", v.mde)
}

// printTable prints one Markdown row per metric the base's BENCHMARK.json
// names, in name order.
func printTable(w io.Writer, runs [2][]sample, better map[string]string) {
	_, conf := signRank(len(runs[0]))
	fmt.Fprintf(w, "| metric | base median [q1, q3] | change median [q1, q3] | Δ median | %.1f %% interval | wins | detectable | gap / base IQR | verdict |\n", 100*conf)
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	for _, name := range slices.Sorted(maps.Keys(better)) {
		var vals [2][]float64
		unit := ""
		for side := range runs {
			for _, s := range runs[side] {
				m := s.Metrics[name]
				vals[side] = append(vals[side], m.Value)
				unit = m.Unit
			}
		}
		v := judge(vals[0], vals[1], better[name] == "lower")
		fmt.Fprintf(w, "| %s (%s) | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f %% | [%+.1f, %+.1f] %% | %d/%d | %.1f %% | %.1f | %s |\n",
			name, unit, v.base[1], v.base[0], v.base[2], v.change[1], v.change[0], v.change[2],
			v.delta, v.lo, v.hi, v.wins, v.n, v.mde, v.gap, v)
	}
	var att, failed [2]int
	for side := range runs {
		for _, s := range runs[side] {
			att[side] += s.Attempted
			failed[side] += s.Failed
		}
	}
	fmt.Fprintf(w, "\nops failed: base %d of %d, change %d of %d\n", failed[0], att[0], failed[1], att[1])
}

// Command bench is the repository's benchmark: six closed-loop workloads
// over the simulator's in-process, cross-process and serving paths, each
// reporting the same end-to-end metrics from an untraced timed pass and a
// per-layer budget from a traced pass and a ladder of microbenchmarks read
// against stated floors. Every op's result is checked bit-for-bit against
// an in-process reference. See README.md for the vocabulary and
// BENCHMARK.json for the driver's contract.
//
//	go run ./bench                                    # the whole suite
//	go run ./bench -workload ipc_adi_chain -trace 1   # one workload, per-layer metrics
//	go run ./bench -aa                                # suite twice, checked against the bounds
//
// The binary imports internal/progs, so it is exec-armed: the ipc worker
// fleets the workloads spawn are re-execs of this same binary.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strings"

	_ "repro/internal/progs"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "", "comma-separated workload names (default: all)")
		seed         = flag.Int64("seed", 1, "seed of the workloads' random inputs")
		seconds      = flag.Float64("seconds", 10, "length of the timed pass of each workload")
		trace        = flag.Int("trace", traceBoth, "0: end-to-end metrics only; 1: per-layer metrics (adds the traced pass); 2: both")
		out          = flag.String("o", "", "write the results as JSON to this file")
		traceOut     = flag.String("trace-out", "", "write each workload's spans to <dir>/<workload>.spans.json")
		aa           = flag.Bool("aa", false, "run the suite twice, in alternate order, and check the two against the bounds")
		forkProbe    = flag.Bool(strings.TrimPrefix(forkProbeFlag, "-"), false, "exit immediately (the fork/exec floor's child)")
	)
	flag.Parse()
	if *forkProbe {
		return
	}
	names, err := selectWorkloads(*workloadFlag)
	if err == nil && (*trace < traceOff || *trace > traceBoth) {
		err = fmt.Errorf("-trace must be 0, 1 or 2")
	}
	if err == nil && *seconds <= 0 {
		err = fmt.Errorf("-seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	opts := runOptions{seed: *seed, seconds: *seconds, trace: *trace, traceOut: *traceOut, setupCycles: setupCycles}

	ok := true
	switch {
	case *aa:
		ok, err = runAA(names, opts)
	case len(names) == 1 && *workloadFlag != "":
		// One named workload runs in this process: this is the form the
		// driver invokes, and the form the suite re-execs.
		var res result
		w, _ := workloadByName(names[0])
		if res, err = runWorkload(w, opts); err == nil {
			err = report(res, opts.trace, *out)
			ok = res.Correct
		}
	default:
		var results []result
		if results, err = runSuite(names, opts); err == nil {
			err = writeResults(*out, results)
			for _, r := range results {
				ok = ok && r.Correct
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func selectAll() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

func selectWorkloads(arg string) ([]string, error) {
	if arg == "" {
		return selectAll(), nil
	}
	var names []string
	for _, name := range strings.Split(arg, ",") {
		if _, ok := workloadByName(name); !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(selectAll(), ", "))
		}
		names = append(names, name)
	}
	return names, nil
}

// report prints one workload's result: the table for people, then, as the
// last line of standard output, the JSON object the driver reads — with
// exactly the metric set the trace mode asked for.
func report(res result, trace int, out string) error {
	printResult(os.Stdout, res)
	if err := writeResults(out, []result{res}); err != nil {
		return err
	}
	var line []byte
	var err error
	if trace == traceBoth {
		line, err = json.Marshal(res)
	} else {
		line, err = json.Marshal(contractResult(res, trace))
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", line)
	return err
}

// contractResult is the driver's view of a result: exactly the keys
// correct, attempted, failed and metrics, each metric exactly a value and
// a unit — the end-to-end set with tracing off, the per-layer set with it
// on.
func contractResult(res result, trace int) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if trace == traceOn {
		defs = perLayer
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		ms[d.Name] = value{res.Metrics[d.Name].Value, d.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms}
}

func writeResults(path string, results []result) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runSuite runs each named workload in a fresh re-exec of this binary, so
// heap state, VmHWM and worker fleets never leak from one workload into
// the next, and collects the results the children print.
func runSuite(names []string, opts runOptions) ([]result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var results []result
	for _, name := range names {
		args := []string{
			"-workload", name,
			"-seed", fmt.Sprint(opts.seed),
			"-seconds", fmt.Sprint(opts.seconds),
			"-trace", fmt.Sprint(traceBoth),
		}
		if opts.traceOut != "" {
			args = append(args, "-trace-out", opts.traceOut)
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		// The child's table passes through; its last line is the result.
		last, rerr := relayLines(stdout, os.Stdout)
		werr := cmd.Wait()
		if rerr != nil {
			return nil, rerr
		}
		var res result
		if err := json.Unmarshal([]byte(last), &res); err != nil {
			return nil, fmt.Errorf("workload %s printed no result (%v)", name, werr)
		}
		results = append(results, res)
	}
	return results, nil
}

// relayLines copies r to w line by line, holding back JSON result lines,
// and returns the last line.
func relayLines(r io.Reader, w io.Writer) (last string, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if !strings.HasPrefix(last, "{") {
			fmt.Fprintln(w, last)
		}
	}
	return last, sc.Err()
}

// printResult prints every metric of one workload by name, with its unit,
// sample count and (end-to-end) bound or (per-layer) note.
func printResult(w io.Writer, res result) {
	fmt.Fprintf(w, "\n== %s  (seed %d, %gs timed pass, nproc %d, GOMAXPROCS %d, %s)\n",
		res.Workload, res.Env.Seed, res.Env.Seconds, res.Env.NumCPU, res.Env.GoMaxProcs, res.Env.GoVersion)
	fmt.Fprintf(w, "   ops attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "   ERROR %s\n", e)
	}
	row := func(d metricDef, extra string) {
		v, ok := res.Metrics[d.Name]
		if !ok || !d.measuredOn(res.Workload) {
			return
		}
		format := "%.6g"
		if slices.Contains(exactMetrics, d.Name) {
			format = "%.17g"
		}
		fmt.Fprintf(w, "   %-30s %18s %-6s n=%-7d %s\n", d.Name, fmt.Sprintf(format, v.Value), v.Unit, v.N, strings.TrimSpace(extra+" "+v.Note))
	}
	for _, d := range endToEnd {
		row(d, fmt.Sprintf("bound %.2f (%s is better)", d.Bound, d.Better))
	}
	for _, d := range perLayer {
		row(d, "")
	}
	if len(res.Budget) > 0 {
		fmt.Fprintf(w, "   trace budget: self time per traced op, by span\n")
		for _, b := range res.Budget {
			fmt.Fprintf(w, "     %-28s %12.4f ms  %5.1f%%\n", b.Span, b.SelfMsPerOp, 100*b.Share)
		}
	}
}

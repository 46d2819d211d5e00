// Command kfbench runs the paper-reproduction experiment suite (figures
// F1-F5 and claims E1-E9; -list prints the index) and prints each
// experiment's report. See README "Running the paper's experiments".
//
// Usage:
//
//	kfbench                                # run everything
//	kfbench E3 F5                          # run selected experiments
//	kfbench -list                          # list experiment IDs
//	kfbench -transport federated -nodes 4 E1   # run on a named transport
//	kfbench -executor calendar E1          # run on a named execution engine
//	kfbench -cpuprofile cpu.pprof S6       # profile a run (also -memprofile)
//	kfbench -chaos scenarios/smoke.json E1     # run under injected faults
//	kfbench -chaos s.json -seed 7 -chaos-report R.json E1  # override seed, save report
//	kfbench -bench -o B.json               # run the perf snapshot and write JSON
//	kfbench -bench -o B.json -compare A.json   # ... and fail on regressions
//	kfbench -bench -o B.json -compare latest   # ... against the highest BENCH_<n>.json
//	kfbench -serve-bench localhost:7070    # mixed-tenant load against a live kfserve
//
// -transport selects, by registry name (machine.RegisterTransport), the
// message-delivery substrate the experiments' systems are built on, and
// -nodes the federation node count (clamped per system to a divisor of its
// processor count, since the suite's machines come in many sizes). Values
// and message censuses are transport-invariant under flat costs, so the
// reported metrics must not move — running the suite this way exercises a
// transport end to end. The scaling experiments (S1-S6) pin their own
// transport arrangements and ignore the flag.
//
// -executor selects, by registry name (machine.RegisterExecutor), the engine
// driving every run: "goroutine" (the default; one partition per virtual
// processor) or "calendar" (the processors multiplexed over GOMAXPROCS
// partitions in virtual-time order). Values, censuses and virtual times are
// engine-invariant, so the reported metrics must not move — running the
// suite this way exercises an engine end to end.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of whatever the
// invocation runs (experiments or -bench), for `go tool pprof`.
//
// -chaos loads a fault-injection scenario (see internal/chaos for the JSON
// format) and runs the selected experiments on a chaos-wrapped transport:
// "chaos:shared" by default, or the chaos-wrapped variant of whatever
// -transport names. Faults are drawn from seeded PRNG streams — the same
// scenario and seed reproduce the same drops, delays and duplications
// exactly — and -seed overrides the scenario file's seed without editing
// it. Values and censuses must still not move: the runtime retransmits lost
// messages and absorbs duplicates, so a completing run means the same thing
// it means fault-free. The aggregated fault/recovery report is printed
// after the suite, and -chaos-report writes it as JSON.
//
// The -bench mode measures the host-side cost of the runtime's hot paths
// (halo exchange, ADI, Jacobi at 4, 64, 256 and 1024 processors, message
// ping-pong over the shared, federated and cost-priced federated
// transports) with allocation counts and writes a JSON snapshot, so
// successive PRs accumulate a perf trajectory that can be diffed
// mechanically. With -compare the snapshot is diffed against a previous
// BENCH_<n>.json — or against the highest-numbered committed snapshot when
// given the literal value "latest", so CI need never name one — and the
// command exits nonzero when any benchmark's allocs/op grew, or its ns/op
// grew by more than 25%.
//
// The -serve-bench mode is a load generator for a live kfserve daemon: for
// -serve-duration, -serve-conc concurrent workers POST a rotation of
// mixed-tenant /v1/run requests (distinct grids and transports, so the
// server juggles several pool keys at once) and the report aggregates
// throughput, latency quantiles and the server-observed pool hit rate. Any
// failed request fails the bench.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/benchkit"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiments"
)

// main defers to run so deferred profile writers execute before the process
// exits (os.Exit skips defers).
func main() { os.Exit(run()) }

func run() int {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	bench := flag.Bool("bench", false, "run the perf snapshot benchmarks and write JSON")
	out := flag.String("o", "BENCH_1.json", "output path for -bench JSON ('-' for stdout)")
	compare := flag.String("compare", "", "previous BENCH_<n>.json to diff against ('latest' auto-discovers the highest-numbered one); regressions exit nonzero")
	nsTol := flag.Float64("ns-tol", benchkit.NsTolerance,
		"relative ns/op growth tolerated by -compare (allocs/op always tolerates none); raise when comparing across machines")
	transport := flag.String("transport", "", "transport registry name the experiments' systems run on (default: per-experiment)")
	nodes := flag.Int("nodes", 0, "federation node count for -transport (clamped to a divisor of each system's processor count)")
	executor := flag.String("executor", "", "execution engine registry name the experiments' systems run on (default: goroutine)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	chaosFile := flag.String("chaos", "", "fault-injection scenario JSON; experiments run on the chaos-wrapped transport")
	seed := flag.Int64("seed", 0, "override the -chaos scenario's seed")
	chaosReport := flag.String("chaos-report", "", "write the aggregated fault/recovery report JSON here after the run ('-' for stdout)")
	serveAddr := flag.String("serve-bench", "", "host:port of a live kfserve; drive the mixed-tenant load benchmark against it instead of running experiments")
	serveDur := flag.Duration("serve-duration", 10*time.Second, "how long -serve-bench sustains load")
	serveConc := flag.Int("serve-conc", 4, "concurrent -serve-bench workers")
	flag.Parse()

	if *serveAddr != "" {
		if *bench || *chaosFile != "" || *transport != "" || *executor != "" {
			fmt.Fprintln(os.Stderr, "kfbench: -serve-bench runs against a live server and combines only with -serve-duration and -serve-conc")
			return 1
		}
		if err := serveBench(*serveAddr, *serveDur, *serveConc); err != nil {
			fmt.Fprintf(os.Stderr, "kfbench: %v\n", err)
			return 1
		}
		return 0
	}

	if *nodes != 0 && *transport == "" {
		fmt.Fprintln(os.Stderr, "kfbench: -nodes requires -transport")
		return 1
	}
	if *transport != "" && *bench {
		// The perf snapshot must measure the workload the committed
		// BENCH_<n>.json baselines recorded; rerouting its experiment-
		// driven benchmarks onto another transport would diff apples
		// against oranges.
		fmt.Fprintln(os.Stderr, "kfbench: -transport cannot be combined with -bench")
		return 1
	}
	if *executor != "" && *bench {
		// Same reasoning: each snapshot benchmark pins its own engine.
		fmt.Fprintln(os.Stderr, "kfbench: -executor cannot be combined with -bench")
		return 1
	}
	if *chaosFile != "" && *bench {
		fmt.Fprintln(os.Stderr, "kfbench: -chaos cannot be combined with -bench (the perf baselines are fault-free)")
		return 1
	}
	if *chaosFile == "" && (*chaosReport != "" || seedSet()) {
		fmt.Fprintln(os.Stderr, "kfbench: -seed and -chaos-report require -chaos")
		return 1
	}
	overlay := core.Spec{Transport: *transport, Nodes: *nodes, Executor: *executor}
	if *chaosFile != "" {
		sc, err := chaos.Load(*chaosFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kfbench: %v\n", err)
			return 1
		}
		if seedSet() {
			sc.Seed = *seed
		}
		overlay.Chaos = &sc
	}
	if err := experiments.SetOverlay(overlay); err != nil {
		fmt.Fprintf(os.Stderr, "kfbench: %v\n", err)
		return 1
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kfbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "kfbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			if err := writeMemProfile(*memprofile); err != nil {
				fmt.Fprintf(os.Stderr, "kfbench: %v\n", err)
			}
		}()
	}

	if *bench {
		if err := runBench(*out, *compare, *nsTol); err != nil {
			fmt.Fprintf(os.Stderr, "kfbench: %v\n", err)
			return 1
		}
		return 0
	}

	if *list {
		for _, e := range experiments.Suite() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}
	want := map[string]bool{}
	for _, arg := range flag.Args() {
		want[strings.ToUpper(arg)] = true
	}
	if writeTranscript(os.Stdout, want) == 0 {
		fmt.Fprintf(os.Stderr, "kfbench: no experiments matched %v\n", flag.Args())
		return 1
	}
	if rep, ok := experiments.ChaosReport(); ok {
		fmt.Fprintf(os.Stderr, "chaos %q (seed %d): %d sends, %d faults injected (%d drops, %d outage holds, %d dups, %d delays, %d brownouts), %d recovered (%d retransmits, %d dups absorbed) over %d retry rounds\n",
			rep.Name, rep.Seed, rep.Sends, rep.Injected(), rep.Drops, rep.OutageHolds, rep.Dups, rep.Delays, rep.Brownouts,
			rep.Recovered(), rep.Retransmits, rep.Absorbed, rep.RetryRounds)
		if *chaosReport != "" {
			if err := writeChaosReport(*chaosReport, rep); err != nil {
				fmt.Fprintf(os.Stderr, "kfbench: %v\n", err)
				return 1
			}
		}
	}
	return 0
}

// writeTranscript runs the selected experiments (every one when want is
// empty) in index order, prints each report to w, and returns how many ran.
// Selection filters the index before running, so asking for one experiment
// pays for one experiment.
func writeTranscript(w io.Writer, want map[string]bool) (ran int) {
	for _, e := range experiments.Suite() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		fmt.Fprintln(w, experiments.Render(e.Run()))
		ran++
	}
	return ran
}

// writeMemProfile records an up-to-date allocation profile at path.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // materialize final allocation statistics
	return pprof.Lookup("allocs").WriteTo(f, 0)
}

// seedSet reports whether -seed was passed explicitly (0 is a legal seed).
func seedSet() bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			set = true
		}
	})
	return set
}

// writeChaosReport marshals the aggregated fault/recovery report to path
// ('-' for stdout).
func writeChaosReport(path string, rep chaos.Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
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

func runBench(out, compare string, nsTol float64) error {
	// Resolve "latest" and load the baseline before anything is written,
	// so the freshly saved output can never become its own baseline —
	// not even when -o names the current latest snapshot to re-record it
	// in place.
	var prev benchkit.SnapshotFile
	if compare == "latest" {
		resolved, err := benchkit.LatestSnapshot(".")
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "comparing against latest snapshot %s\n", resolved)
		compare = resolved
	}
	if compare != "" {
		var err error
		if prev, err = benchkit.Load(compare); err != nil {
			return err
		}
	}
	gmp, ncpu := benchkit.HostParallelism()
	snap := benchkit.SnapshotFile{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  benchkit.GoVersion(),
		GoMaxProcs: gmp,
		NumCPU:     ncpu,
	}
	for _, bm := range benchkit.Snapshot() {
		r := testing.Benchmark(bm.Fn)
		snap.Results = append(snap.Results, benchkit.Result{
			Name:        bm.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op %8d B/op %6d allocs/op\n",
			bm.Name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}
	if err := benchkit.Save(out, snap); err != nil {
		return err
	}
	if compare == "" {
		return nil
	}
	if warn := benchkit.ParallelismWarning(prev, snap); warn != "" {
		fmt.Fprintf(os.Stderr, "warning: %s\n", warn)
	}
	failed := 0
	for _, d := range benchkit.Compare(prev, snap, nsTol) {
		status := "ok"
		if d.Regression {
			status = "REGRESSION"
			failed++
		} else if d.Reason != "" {
			status = d.Reason
		}
		fmt.Fprintf(os.Stderr, "compare %-28s prev %10.0f ns/op %6d allocs/op | cur %10.0f ns/op %6d allocs/op  %s\n",
			d.Name, d.PrevNs, d.PrevAllocs, d.CurNs, d.CurAllocs, status)
		if d.Regression {
			fmt.Fprintf(os.Stderr, "        ^ %s\n", d.Reason)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d benchmark(s) regressed versus %s", failed, compare)
	}
	fmt.Fprintf(os.Stderr, "no regressions versus %s\n", compare)
	return nil
}

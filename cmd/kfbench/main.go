// Command kfbench runs the paper-reproduction experiment suite (figures
// F1-F5, claims E1-E9, ablations A1-A3 and scaling rows S1-S6; -list prints
// the index) and prints each experiment's report: `kfbench F1 F2 F3 F4 F5`
// renders the paper's figures as text. Each selected experiment runs
// through experiments.Entry.Run with the overlay the flags below select,
// and closes every system it built before the next one starts. Host-side
// timing is the bench/ package's (BENCHMARK.json), not this command's.
//
// Usage:
//
//	kfbench                                # run everything
//	kfbench E3 F5                          # run selected experiments
//	kfbench -list                          # list experiment IDs
//	kfbench -transport federated -nodes 4 E1   # run on a named transport
//	kfbench -cpuprofile cpu.pprof S6       # profile a run (also -memprofile)
//	kfbench -chaos scenarios/smoke.json E1     # run under injected faults
//	kfbench -chaos s.json -seed 7 -chaos-report R.json E1  # override seed, save report
//	kfbench -serve-bench localhost:7070    # mixed-tenant load against a live kfserve
//
// -transport selects, by name (machine.NewTransportByName), the
// message-delivery substrate the experiments' systems are built on, and
// -nodes the federation node count (clamped per system to a divisor of its
// processor count, since the suite's machines come in many sizes). Values
// and message censuses are transport-invariant under flat costs, so the
// reported metrics must not move — running the suite this way exercises a
// transport end to end. The scaling experiments (S1-S6) pin their own
// transport arrangements and ignore the flag.
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the
// experiments the invocation runs, for `go tool pprof`.
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
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/experiments"
)

// main defers to run so deferred profile writers execute before the process
// exits (os.Exit skips defers).
func main() { os.Exit(run()) }

func run() int {
	list := flag.Bool("list", false, "list experiment IDs and exit")
	transport := flag.String("transport", "", "transport registry name the experiments' systems run on (default: per-experiment)")
	nodes := flag.Int("nodes", 0, "federation node count for -transport (clamped to a divisor of each system's processor count)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiments run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	chaosFile := flag.String("chaos", "", "fault-injection scenario JSON; experiments run on the chaos-wrapped transport")
	seed := flag.Int64("seed", 0, "override the -chaos scenario's seed")
	chaosReport := flag.String("chaos-report", "", "write the aggregated fault/recovery report JSON here after the run ('-' for stdout)")
	serveAddr := flag.String("serve-bench", "", "host:port of a live kfserve; drive the mixed-tenant load benchmark against it instead of running experiments")
	serveDur := flag.Duration("serve-duration", 10*time.Second, "how long -serve-bench sustains load")
	serveConc := flag.Int("serve-conc", 4, "concurrent -serve-bench workers")
	flag.Parse()

	if *serveAddr != "" {
		if *chaosFile != "" || *transport != "" {
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
	if *chaosFile == "" && (*chaosReport != "" || seedSet()) {
		fmt.Fprintln(os.Stderr, "kfbench: -seed and -chaos-report require -chaos")
		return 1
	}
	overlay := core.Spec{Transport: *transport, Nodes: *nodes}
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
	ran, rep, err := writeTranscript(os.Stdout, overlay, want)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kfbench: %v\n", err)
		return 1
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "kfbench: no experiments matched %v\n", flag.Args())
		return 1
	}
	if overlay.Chaos != nil {
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
// empty) in index order under overlay, prints each report to w, and returns
// how many ran and the sum of their chaos reports. Selection filters the
// index before running, so asking for one experiment pays for one
// experiment.
func writeTranscript(w io.Writer, overlay core.Spec, want map[string]bool) (ran int, rep chaos.Report, err error) {
	for _, e := range experiments.Suite() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		r, er, err := e.Run(overlay)
		if err != nil {
			return ran, rep, err
		}
		fmt.Fprintln(w, experiments.Render(r))
		rep = rep.Add(er)
		ran++
	}
	return ran, rep, nil
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

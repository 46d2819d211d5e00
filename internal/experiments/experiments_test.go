package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// entry returns the Suite entry with the given ID.
func entry(t *testing.T, id string) Entry {
	t.Helper()
	for _, e := range Suite() {
		if e.ID == id {
			return e
		}
	}
	t.Fatalf("no experiment %s", id)
	return Entry{}
}

// run runs experiment id under overlay.
func run(t *testing.T, id string, overlay core.Spec) Result {
	t.Helper()
	r, _, err := entry(t, id).Run(overlay)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// The experiment suite's assertions encode the paper's qualitative claims:
// who wins, by roughly what factor, where the shapes bend. Absolute numbers
// are simulated virtual time and free to drift; these bounds are not.

func TestF1Structure(t *testing.T) {
	r := run(t, "F1", core.Spec{})
	if r.Metrics["boundary_error"] > 1e-9 {
		t.Errorf("boundary error %v", r.Metrics["boundary_error"])
	}
	if r.Metrics["reduced_rows"] != 8 {
		t.Errorf("reduced rows %v, want 8 (= 2p)", r.Metrics["reduced_rows"])
	}
	if !strings.Contains(r.Text, "a") || !strings.Contains(r.Text, ".") {
		t.Error("structure rendering missing")
	}
}

func TestF2FourRows(t *testing.T) {
	r := run(t, "F2", core.Spec{})
	if r.Metrics["boundary_error"] > 1e-9 || r.Metrics["interior_error"] > 1e-9 {
		t.Errorf("errors %v / %v", r.Metrics["boundary_error"], r.Metrics["interior_error"])
	}
}

func TestF3DataflowShape(t *testing.T) {
	r := run(t, "F3", core.Spec{})
	// p=8: active counts must be the Figure 3 diamond 8,4,2,1,2,4,8.
	want := map[string]float64{
		"step0": 8, "step1": 4, "step2": 2, "step3": 1,
		"step4": 2, "step5": 4, "step6": 8,
	}
	for k, v := range want {
		if r.Metrics[k] != v {
			t.Errorf("%s = %v, want %v", k, r.Metrics[k], v)
		}
	}
}

func TestF4SubstitutionAccuracy(t *testing.T) {
	r := run(t, "F4", core.Spec{})
	if r.Metrics["max_error"] > 1e-8 {
		t.Errorf("max error %v", r.Metrics["max_error"])
	}
}

func TestF5PipelineUtilization(t *testing.T) {
	r := run(t, "F5", core.Spec{})
	if r.Metrics["util_pipelined"] <= r.Metrics["util_single"] {
		t.Errorf("pipelined utilization %v <= single %v",
			r.Metrics["util_pipelined"], r.Metrics["util_single"])
	}
}

func TestE1JacobiClaims(t *testing.T) {
	r := run(t, "E1", core.Spec{})
	if r.Metrics["maxdiff_mp"] != 0 || r.Metrics["maxdiff_kf1"] != 0 {
		t.Errorf("variants not bitwise identical: %v / %v",
			r.Metrics["maxdiff_mp"], r.Metrics["maxdiff_kf1"])
	}
	if ratio := r.Metrics["time_ratio_kf1_mp"]; ratio < 0.8 || ratio > 1.25 {
		t.Errorf("claim C2 violated: KF1/MP ratio %v", ratio)
	}
	if r.Metrics["speedup_16p"] < 4 {
		t.Errorf("16-processor speedup %v < 4", r.Metrics["speedup_16p"])
	}
}

func TestE2TriScalingShape(t *testing.T) {
	r := run(t, "E2", core.Spec{})
	// On the balanced machine speedup must grow monotonically through
	// p=16 for n=2048.
	prev := 0.0
	for _, p := range []int{1, 2, 4, 8, 16} {
		s := r.Metrics[fmt.Sprintf("speedup_balanced_p%d", p)]
		if s < prev {
			t.Errorf("balanced speedup shrank at p=%d: %v -> %v", p, prev, s)
		}
		prev = s
	}
	if r.Metrics["speedup_balanced_p16"] < 3 {
		t.Errorf("balanced speedup at p=16 is %v, want >= 3", r.Metrics["speedup_balanced_p16"])
	}
}

func TestE3PipelineRatioGrows(t *testing.T) {
	r := run(t, "E3", core.Spec{})
	if r.Metrics["ratio_m1"] > 1.15 {
		t.Errorf("m=1 pipelined should not beat single solve: ratio %v", r.Metrics["ratio_m1"])
	}
	if r.Metrics["ratio_m32"] < r.Metrics["ratio_m4"] {
		t.Errorf("pipeline ratio should grow with m: m4=%v m32=%v",
			r.Metrics["ratio_m4"], r.Metrics["ratio_m32"])
	}
	if r.Metrics["ratio_m32"] < 1.5 {
		t.Errorf("m=32 pipelining ratio %v, want >= 1.5", r.Metrics["ratio_m32"])
	}
}

func TestE4ADIAgreesAndContracts(t *testing.T) {
	r := run(t, "E4", core.Spec{})
	if r.Metrics["maxdiff"] > 1e-8 {
		t.Errorf("parallel vs sequential maxdiff %v", r.Metrics["maxdiff"])
	}
	if r.Metrics["final_factor"] > 0.5 {
		t.Errorf("ADI contraction factor %v", r.Metrics["final_factor"])
	}
}

func TestE5MADIWinsEverywhere(t *testing.T) {
	r := run(t, "E5", core.Spec{})
	for k, v := range r.Metrics {
		if v <= 1 {
			t.Errorf("%s = %v, want > 1 (madi must win)", k, v)
		}
	}
	// The margin should grow with processor count at fixed n.
	if r.Metrics["ratio_n64_p4x4"] <= r.Metrics["ratio_n64_p2x2"] {
		t.Errorf("madi margin did not grow with p: %v vs %v",
			r.Metrics["ratio_n64_p2x2"], r.Metrics["ratio_n64_p4x4"])
	}
}

func TestE6MultigridFactors(t *testing.T) {
	r := run(t, "E6", core.Spec{})
	if r.Metrics["mg2_factor"] > 0.25 {
		t.Errorf("MG2 factor %v", r.Metrics["mg2_factor"])
	}
	if r.Metrics["mg3_factor_pc1"] > 0.35 {
		t.Errorf("MG3 factor (1 plane cycle) %v", r.Metrics["mg3_factor_pc1"])
	}
	if r.Metrics["mg3_factor_pc2"] > r.Metrics["mg3_factor_pc1"] {
		t.Errorf("more plane cycles should not converge slower: %v vs %v",
			r.Metrics["mg3_factor_pc2"], r.Metrics["mg3_factor_pc1"])
	}
	if r.Metrics["mg2_par_vs_seq"] > 1e-6 {
		t.Errorf("parallel MG2 deviates from sequential: %v", r.Metrics["mg2_par_vs_seq"])
	}
}

func TestE7DistributionVariantsRun(t *testing.T) {
	r := run(t, "E7", core.Spec{})
	if len(r.Metrics) != 3 {
		t.Fatalf("expected 3 variants, got %v", r.Metrics)
	}
	for k, v := range r.Metrics {
		if v <= 0 {
			t.Errorf("%s elapsed %v", k, v)
		}
	}
}

func TestE8CodeSizeBands(t *testing.T) {
	r := run(t, "E8", core.Spec{})
	if ratio := r.Metrics["ratio_mp_seq"]; ratio < 4 || ratio > 12 {
		t.Errorf("claim C1: MP/seq statement ratio %v outside the 5-10x band (tolerance 4-12)", ratio)
	}
	if ratio := r.Metrics["ratio_kf1_seq"]; ratio > 3 {
		t.Errorf("KF1/seq ratio %v, want near sequential length", ratio)
	}
}

func TestE9InspectorOverheadShape(t *testing.T) {
	r := run(t, "E9", core.Spec{})
	if r.Metrics["maxdiff"] != 0 {
		t.Errorf("paths disagree by %v", r.Metrics["maxdiff"])
	}
	if r.Metrics["msg_ratio"] <= 1 {
		t.Errorf("runtime resolution should cost more messages: ratio %v", r.Metrics["msg_ratio"])
	}
}

func TestS4LinkAsymmetry(t *testing.T) {
	r := run(t, "S4", core.Spec{})
	if r.Metrics["s4_identical"] != 1 {
		t.Error("link asymmetry changed values or message censuses")
	}
	if r.Metrics["s4_perfest_exact"] != 1 {
		t.Error("an elapsed time disagrees with perfest's per-link finish-time recurrence")
	}
	if r.Metrics["s4_uplink_monotone"] != 1 {
		t.Error("slowing the uplink should never speed the run")
	}
	if r.Metrics["s4_uplink_slows"] != 1 {
		t.Error("a 32x uplink should run strictly slower than the uniform federation")
	}
	if r.Metrics["s4_backbone_helps"] != 1 {
		t.Error("repricing the backbone down must never slow the run")
	}
	if r.Metrics["s4_backbone_gain"] < 0 {
		t.Errorf("backbone gain %v negative", r.Metrics["s4_backbone_gain"])
	}
	// Every federation pays a real surcharge over the shared machine.
	for _, k := range []string{"uplink1x", "uplink2x", "uplink8x", "uplink32x", "backbone"} {
		if !(r.Metrics[fmt.Sprintf("s4_time_%s", k)] > r.Metrics["s4_time_shared"]) {
			t.Errorf("%s not slower than shared", k)
		}
	}
}

// TestTransportSelection smokes the kfbench -transport path: the whole
// point of resolving transports by registry name is that any experiment's
// values and censuses are invariant under a flat-cost transport swap.
func TestTransportSelection(t *testing.T) {
	e1 := entry(t, "E1")
	if _, _, err := e1.Run(core.Spec{Transport: "no-such-transport", Nodes: 1}); err == nil {
		t.Error("unknown transport accepted")
	}
	if _, _, err := e1.Run(core.Spec{Transport: "shared", Nodes: 4}); err == nil {
		t.Error("shared transport accepted a federation")
	}
	base := run(t, "E1", core.Spec{})
	fed := run(t, "E1", core.Spec{Transport: "federated", Nodes: 4})
	for k, v := range base.Metrics {
		if fed.Metrics[k] != v {
			t.Errorf("metric %s moved under the federated transport: %v -> %v", k, v, fed.Metrics[k])
		}
	}
}

func TestAllRunAndRender(t *testing.T) {
	for _, e := range Suite() {
		r := run(t, e.ID, core.Spec{})
		if r.ID != e.ID || r.Title != e.Title || r.Text == "" {
			t.Errorf("experiment %q incomplete: %+v", e.ID, r)
		}
		if s := Render(r); !strings.Contains(s, r.ID) {
			t.Errorf("render of %s missing ID", r.ID)
		}
	}
}

// TestSuiteConcurrentOverlays runs experiments at once, each under its own
// overlay, and requires every result to equal its solo run: an overlay is
// an argument of the run, not state of the package.
func TestSuiteConcurrentOverlays(t *testing.T) {
	overlays := []core.Spec{{Transport: "shared"}, {Transport: "federated", Nodes: 4}}
	ids := []string{"E1", "E2", "E9", "A1"}
	solo := map[string]Result{}
	for _, o := range overlays {
		for _, id := range ids {
			solo[fmt.Sprint(id, o)] = run(t, id, o)
		}
	}
	var wg sync.WaitGroup
	for _, o := range overlays {
		for _, id := range ids {
			e := entry(t, id)
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, _, err := e.Run(o)
				if err != nil {
					t.Error(err)
					return
				}
				if want := solo[fmt.Sprint(id, o)]; !reflect.DeepEqual(r, want) {
					t.Errorf("%s under %+v run concurrently differs from its solo run:\n%s\nwant:\n%s",
						id, o, Render(r), Render(want))
				}
			}()
		}
	}
	wg.Wait()
}

// TestRunClosesWorkerFleets runs E2 on the ipc transport and requires that
// none of the worker processes its systems spawned outlives the run.
func TestRunClosesWorkerFleets(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc on this platform")
	}
	run(t, "E2", core.Spec{Transport: "ipc", Nodes: 4})
	if kids := children(t); len(kids) > 0 {
		t.Errorf("%d worker processes outlive the experiment: %v", len(kids), kids)
	}
}

// children lists the live child processes of the test binary, read from
// /proc/<pid>/stat: after the parenthesized command come the state and
// the parent pid.
func children(t *testing.T) []string {
	t.Helper()
	dirs, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	self := strconv.Itoa(os.Getpid())
	var kids []string
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join("/proc", d.Name(), "stat"))
		if err != nil {
			continue // not a process, or it has exited
		}
		stat := string(raw)
		if f := strings.Fields(stat[strings.LastIndexByte(stat, ')')+1:]); len(f) > 1 && f[1] == self {
			kids = append(kids, d.Name()+" ("+f[0]+")")
		}
	}
	return kids
}

// TestE8OutsideTheModule runs E8 from a directory outside the module: the
// statement counts come from jacobi's embedded source, not from a file
// found above the working directory.
func TestE8OutsideTheModule(t *testing.T) {
	want := run(t, "E8", core.Spec{})
	t.Chdir(t.TempDir())
	if got := run(t, "E8", core.Spec{}); !reflect.DeepEqual(got, want) {
		t.Errorf("E8 outside the module:\n%s\nwant:\n%s", Render(got), Render(want))
	}
}

func TestA1MappingAblation(t *testing.T) {
	r := run(t, "A1", core.Spec{})
	if r.Metrics["ratio_m1"] > 1.05 {
		t.Errorf("mappings should tie for one system: %v", r.Metrics["ratio_m1"])
	}
	if r.Metrics["ratio_m32"] < 1.3 {
		t.Errorf("shuffle should clearly win at m=32: ratio %v", r.Metrics["ratio_m32"])
	}
	if r.Metrics["ratio_m32"] < r.Metrics["ratio_m4"] {
		t.Errorf("packed penalty should grow with m: m4=%v m32=%v",
			r.Metrics["ratio_m4"], r.Metrics["ratio_m32"])
	}
}

func TestA2EstimatorAccuracy(t *testing.T) {
	r := run(t, "A2", core.Spec{})
	for _, k := range []string{"jacobi_msg_exact", "jacobi_byte_exact", "tri_msg_exact", "tri_byte_exact"} {
		if r.Metrics[k] != 1 {
			t.Errorf("%s: prediction not exact", k)
		}
	}
	if r.Metrics["jacobi_time_err"] > 0.25 {
		t.Errorf("jacobi time estimate off by %v", r.Metrics["jacobi_time_err"])
	}
	if r.Metrics["tri_time_err"] > 0.25 {
		t.Errorf("tri time estimate off by %v", r.Metrics["tri_time_err"])
	}
}

func TestA3CyclicBeatsBlockOnLU(t *testing.T) {
	r := run(t, "A3", core.Spec{})
	if r.Metrics["time_cyclic"] >= r.Metrics["time_block"] {
		t.Errorf("cyclic %v should beat block %v",
			r.Metrics["time_cyclic"], r.Metrics["time_block"])
	}
	if r.Metrics["imbalance_block"] < 2*r.Metrics["imbalance_cyclic"] {
		t.Errorf("block imbalance %v should dwarf cyclic %v",
			r.Metrics["imbalance_block"], r.Metrics["imbalance_cyclic"])
	}
}

func TestS1Scale64(t *testing.T) {
	r := run(t, "S1", core.Spec{})
	if r.Metrics["jacobi64_schedule_identical"] != 1 {
		t.Error("64-processor Jacobi: schedule replay diverged from direct derivation")
	}
	if r.Metrics["adi64_schedule_identical"] != 1 {
		t.Error("64-processor pipelined ADI: schedule replay diverged from direct derivation")
	}
	// Scaling shape: more processors must keep reducing virtual time and
	// growing message counts for this surface-to-volume regime.
	if !(r.Metrics["jacobi_time_p64"] < r.Metrics["jacobi_time_p16"] &&
		r.Metrics["jacobi_time_p16"] < r.Metrics["jacobi_time_p4"]) {
		t.Errorf("Jacobi virtual time should shrink with processors: p4=%v p16=%v p64=%v",
			r.Metrics["jacobi_time_p4"], r.Metrics["jacobi_time_p16"], r.Metrics["jacobi_time_p64"])
	}
	if !(r.Metrics["jacobi_msgs_p64"] > r.Metrics["jacobi_msgs_p16"]) {
		t.Errorf("message count should grow with the grid: p16=%v p64=%v",
			r.Metrics["jacobi_msgs_p16"], r.Metrics["jacobi_msgs_p64"])
	}
}

func TestS2Transport256(t *testing.T) {
	if testing.Short() {
		t.Skip("256-processor experiment skipped in short mode")
	}
	r := run(t, "S2", core.Spec{})
	for _, key := range []string{"s2_jacobi_identical", "s2_adi_identical"} {
		if r.Metrics[key] != 1 {
			t.Errorf("%s: the federated transport diverged from the shared one", key)
		}
	}
	if r.Metrics["s2_internode_match"] != 1 {
		t.Error("measured inter-node traffic disagrees with perfest's prediction")
	}
	if r.Metrics["s2_links_symmetric"] != 1 {
		t.Error("per-iteration link traffic is not a symmetric nearest-neighbour pattern")
	}
	if !(r.Metrics["s2_speedup_64_to_256"] > 1) {
		t.Errorf("256 processors should beat 64 on this problem, got speedup %v",
			r.Metrics["s2_speedup_64_to_256"])
	}
}

func TestS3Hierarchical1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-processor experiment skipped in short mode")
	}
	r := run(t, "S3", core.Spec{})
	for _, key := range []string{"s3_jacobi_identical", "s3_adi_identical"} {
		if r.Metrics[key] != 1 {
			t.Errorf("%s: values or message census diverged across transports", key)
		}
	}
	if r.Metrics["s3_jacobi_surcharge_exact"] != 1 {
		t.Error("jacobi federated surcharge disagrees with perfest's exact recurrence")
	}
	if r.Metrics["s3_adi_surcharge_ok"] != 1 {
		t.Error("madi federated surcharge outside the estimator's documented tolerance")
	}
	if r.Metrics["s3_internode_census_match"] != 1 {
		t.Error("measured inter-node traffic disagrees with perfest's enumeration")
	}
	if r.Metrics["s3_jacobi_knee"] != 1 {
		t.Error("the 16->64 node step should dwarf the 4->16 one (the NUMA knee)")
	}
	// The hierarchy must actually price something: every multi-node
	// federation runs strictly slower than the shared machine.
	for _, nodes := range []int{4, 16, 64} {
		if !(r.Metrics[fmt.Sprintf("s3_jacobi_time_nodes%d", nodes)] > r.Metrics["s3_jacobi_time_shared"]) {
			t.Errorf("jacobi at %d nodes not slower than shared", nodes)
		}
		if !(r.Metrics[fmt.Sprintf("s3_adi_time_nodes%d", nodes)] > r.Metrics["s3_adi_time_shared"]) {
			t.Errorf("madi at %d nodes not slower than shared", nodes)
		}
	}
}

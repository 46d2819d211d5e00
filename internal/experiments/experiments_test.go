package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// The experiment suite's assertions encode the paper's qualitative claims:
// who wins, by roughly what factor, where the shapes bend. Absolute numbers
// are simulated virtual time and free to drift; these bounds are not.

func TestF1Structure(t *testing.T) {
	r := F1FirstReduction()
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
	r := F2FourRowReduction()
	if r.Metrics["boundary_error"] > 1e-9 || r.Metrics["interior_error"] > 1e-9 {
		t.Errorf("errors %v / %v", r.Metrics["boundary_error"], r.Metrics["interior_error"])
	}
}

func TestF3DataflowShape(t *testing.T) {
	r := F3Dataflow()
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
	r := F4Substitution()
	if r.Metrics["max_error"] > 1e-8 {
		t.Errorf("max error %v", r.Metrics["max_error"])
	}
}

func TestF5PipelineUtilization(t *testing.T) {
	r := F5Mapping()
	if r.Metrics["util_pipelined"] <= r.Metrics["util_single"] {
		t.Errorf("pipelined utilization %v <= single %v",
			r.Metrics["util_pipelined"], r.Metrics["util_single"])
	}
}

func TestE1JacobiClaims(t *testing.T) {
	r := E1Jacobi()
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
	r := E2Tri()
	// On the balanced machine speedup must grow monotonically through
	// p=16 for n=2048.
	prev := 0.0
	for _, p := range []int{1, 2, 4, 8, 16} {
		s := r.Metrics[keyf("speedup_balanced_p%d", p)]
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
	r := E3Pipeline()
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
	r := E4ADI()
	if r.Metrics["maxdiff"] > 1e-8 {
		t.Errorf("parallel vs sequential maxdiff %v", r.Metrics["maxdiff"])
	}
	if r.Metrics["final_factor"] > 0.5 {
		t.Errorf("ADI contraction factor %v", r.Metrics["final_factor"])
	}
}

func TestE5MADIWinsEverywhere(t *testing.T) {
	r := E5MADI()
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
	r := E6Multigrid()
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
	r := E7Distribution()
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
	r := E8CodeSize()
	if ratio := r.Metrics["ratio_mp_seq"]; ratio < 4 || ratio > 12 {
		t.Errorf("claim C1: MP/seq statement ratio %v outside the 5-10x band (tolerance 4-12)", ratio)
	}
	if ratio := r.Metrics["ratio_kf1_seq"]; ratio > 3 {
		t.Errorf("KF1/seq ratio %v, want near sequential length", ratio)
	}
}

func TestE9InspectorOverheadShape(t *testing.T) {
	r := E9Inspector()
	if r.Metrics["maxdiff"] != 0 {
		t.Errorf("paths disagree by %v", r.Metrics["maxdiff"])
	}
	if r.Metrics["msg_ratio"] <= 1 {
		t.Errorf("runtime resolution should cost more messages: ratio %v", r.Metrics["msg_ratio"])
	}
}

func TestS4LinkAsymmetry(t *testing.T) {
	r := S4LinkAsymmetry()
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
		if !(r.Metrics[keyf("s4_time_%s", k)] > r.Metrics["s4_time_shared"]) {
			t.Errorf("%s not slower than shared", k)
		}
	}
}

// TestTransportSelection smokes the kfbench -transport path: the whole
// point of resolving transports by registry name is that any experiment's
// values and censuses are invariant under a flat-cost transport swap.
func TestTransportSelection(t *testing.T) {
	if err := SetOverlay(core.Spec{Transport: "no-such-transport", Nodes: 1}); err == nil {
		t.Error("unknown transport accepted")
	}
	if err := SetOverlay(core.Spec{Transport: "shared", Nodes: 4}); err == nil {
		t.Error("shared transport accepted a federation")
	}
	base := E1Jacobi()
	if err := SetOverlay(core.Spec{Transport: "federated", Nodes: 4}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetOverlay(core.Spec{}); err != nil {
			t.Fatal(err)
		}
	}()
	fed := E1Jacobi()
	for k, v := range base.Metrics {
		if fed.Metrics[k] != v {
			t.Errorf("metric %s moved under the federated transport: %v -> %v", k, v, fed.Metrics[k])
		}
	}
}

func TestAllRunAndRender(t *testing.T) {
	entries := Suite()
	results := All()
	if len(results) != len(entries) {
		t.Fatalf("Suite has %d entries, All produced %d results", len(entries), len(results))
	}
	for i, r := range results {
		if r.ID == "" || r.Title == "" || r.Text == "" {
			t.Errorf("experiment %q incomplete", r.ID)
		}
		if s := Render(r); !strings.Contains(s, r.ID) {
			t.Errorf("render of %s missing ID", r.ID)
		}
		// The lazy index must describe exactly what running it produces.
		if entries[i].ID != r.ID || entries[i].Title != r.Title {
			t.Errorf("Suite entry %d (%s, %q) disagrees with its Result (%s, %q)",
				i, entries[i].ID, entries[i].Title, r.ID, r.Title)
		}
	}
}

func TestA1MappingAblation(t *testing.T) {
	r := A1Mapping()
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
	r := A2Estimator()
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
	r := A3Cyclic()
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
	r := S1Scale64()
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
	r := S2Transport256()
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
	r := S3Hierarchical1024()
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
		if !(r.Metrics[keyf("s3_jacobi_time_nodes%d", nodes)] > r.Metrics["s3_jacobi_time_shared"]) {
			t.Errorf("jacobi at %d nodes not slower than shared", nodes)
		}
		if !(r.Metrics[keyf("s3_adi_time_nodes%d", nodes)] > r.Metrics["s3_adi_time_shared"]) {
			t.Errorf("madi at %d nodes not slower than shared", nodes)
		}
	}
}

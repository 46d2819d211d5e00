package main

import (
	"encoding/json"
	"testing"
)

// Every workload sets up, runs a short timed pass with every op verified
// against its reference, and tears down without leaving a worker behind.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runWorkload(w, runOptions{seed: 1, seconds: 0.2, trace: traceOff, setupCycles: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("attempted %d, failed %d, correct %v: %v", res.Attempted, res.Failed, res.Correct, res.Errors)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name]; !(v.Value > 0) || v.Unit != d.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.Name, v, d.Unit)
				}
			}
		})
	}
}

// The traced form on the serve path: every declared per-layer metric is
// reported, the ones this workload measures are live, the trace covers the
// op, and the driver's view of the result has exactly the contract's keys.
func TestTracedRunReportsEveryPerLayerMetric(t *testing.T) {
	w, _ := workloadByName(wServeWarm)
	res, err := runWorkload(w, runOptions{seed: 2, seconds: 0.4, trace: traceOn, setupCycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("not correct: %v", res.Errors)
	}
	for _, d := range perLayer {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s is not reported", d.Name)
		} else if !d.measuredOn(w.Name) && v.Value != 0 {
			t.Errorf("%s = %g on a workload that does not measure it", d.Name, v.Value)
		}
	}
	for name, want := range map[string]float64{
		"fail_share": 0, "core.identity_mismatches": 0,
		"serve.pool_hit_share": 1, "serve.pool_evictions_per_op": 0, "serve.pool_discards": 0,
		"sim_msgs_per_op": 967,
	} {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
	if cover := res.Metrics["trace.span_cover"].Value; cover < 0.9 {
		t.Errorf("trace.span_cover = %g, want at least 0.9", cover)
	}

	data, err := json.Marshal(contractResult(res, traceOn))
	if err != nil {
		t.Fatal(err)
	}
	var line map[string]json.RawMessage
	if err := json.Unmarshal(data, &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var ms map[string]map[string]any
	if err := json.Unmarshal(line["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(perLayer) {
		t.Errorf("result line has %d metrics, want the %d per-layer ones", len(ms), len(perLayer))
	}
	for name, v := range ms {
		if len(v) != 2 || v["value"] == nil || v["unit"] != units[name] {
			t.Errorf("metric %s = %v, want exactly a value and the unit %q", name, v, units[name])
		}
	}
}

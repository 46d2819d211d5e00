package main

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// The determinism contract as a test: one program gives the same bits on
// every transport, worker count and process layout. The whole suite's
// transcript — every experiment's values, message censuses and virtual
// times, exactly as kfbench prints them — is committed, and each transport
// configuration, run on the calendar engine at its default worker count,
// must reproduce it byte for byte (S6 inside it compares a worker per rank,
// the default and one worker). A change that moves output
// on purpose shows its golden diff; one that must not move output shows none.
//
// The bits are those of the architecture in the file's header: on platforms
// where Go fuses a multiply-add, closure bodies may round differently in the
// last place, so the test compares only on the recorded GOARCH.
//
//	go test ./cmd/kfbench -run TestGoldenTranscript            # compare
//	go test ./cmd/kfbench -run TestGoldenTranscript -update    # rewrite

var update = flag.Bool("update", false, "rewrite testdata/kfbench.golden from this run's transcript")

const goldenPath = "testdata/kfbench.golden"

func TestGoldenTranscript(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole experiment suite three times")
	}
	configs := []struct {
		name string
		spec core.Spec
	}{
		{"shared/calendar", core.Spec{Transport: "shared"}},
		{"federated4/calendar", core.Spec{Transport: "federated", Nodes: 4}},
		{"ipc4/calendar", core.Spec{Transport: "ipc", Nodes: 4}},
	}
	// The first line records the architecture the bits belong to.
	header := "# kfbench transcript, GOARCH=" + runtime.GOARCH + "; rewrite with: go test ./cmd/kfbench -run TestGoldenTranscript -update\n"
	var want string
	if !*update {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (create it with -update)", err)
		}
		want = string(raw)
		if first, _, _ := strings.Cut(want, "\n"); first+"\n" != header {
			t.Skipf("golden transcript recorded as %q; this is GOARCH=%s", first, runtime.GOARCH)
		}
	}
	// The configurations run concurrently, each with its own overlay. With
	// -update they must still agree with one another, and the file is
	// written once, after the last of them.
	got := make([]string, len(configs))
	t.Cleanup(func() {
		if !*update || t.Failed() {
			return
		}
		for i, c := range configs[1:] {
			if got[i+1] != got[0] {
				line, g, w := firstDiff(got[i+1], got[0])
				t.Errorf("%s differs from %s at line %d:\n got: %s\nwant: %s", c.name, configs[0].name, line, g, w)
				return
			}
		}
		if err := os.WriteFile(goldenPath, []byte(got[0]), 0o644); err != nil {
			t.Error(err)
		}
	})
	for i, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			buf.WriteString(header)
			if _, _, err := writeTranscript(&buf, c.spec, nil); err != nil {
				t.Fatal(err)
			}
			got[i] = buf.String()
			if *update {
				return
			}
			if got[i] != want {
				line, g, w := firstDiff(got[i], want)
				t.Errorf("transcript differs from %s at line %d (%d lines against %d):\n got: %s\nwant: %s",
					goldenPath, line, strings.Count(got[i], "\n"), strings.Count(want, "\n"), g, w)
			}
		})
	}
}

// firstDiff returns the first line (1-based) at which a and b differ and
// that line of each ("" past the end).
func firstDiff(a, b string) (line int, la, lb string) {
	as, bs := strings.Split(a, "\n"), strings.Split(b, "\n")
	at := func(s []string, i int) string {
		if i < len(s) {
			return s[i]
		}
		return ""
	}
	for i := range max(len(as), len(bs)) {
		if la, lb = at(as, i), at(bs, i); la != lb {
			return i + 1, la, lb
		}
	}
	return max(len(as), len(bs)), "", ""
}

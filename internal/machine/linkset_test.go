package machine

import (
	"io"
	"strings"
	"testing"
)

// TestLinkTrafficRejectsOutOfRangeNode: the census is stored row-major, so
// an unchecked LinkTraffic(0, nnodes) would read link (1, 0)'s counters.
// Every transport with a linkSet — and the chaos wrapper delegating to one —
// panics with a message naming the node count instead.
func TestLinkTrafficRejectsOutOfRangeNode(t *testing.T) {
	const n, nodes = 4, 2
	for _, name := range []string{"federated", "ipc", "chaos:federated"} {
		t.Run(name, func(t *testing.T) {
			tr, err := NewTransportByName(name, n, nodes)
			if err != nil {
				t.Fatal(err)
			}
			if c, ok := tr.(io.Closer); ok {
				defer c.Close() // the ipc row never sends, so no worker ever starts
			}
			lc, ok := tr.(interface {
				LinkTraffic(src, dst int) (int64, int64)
			})
			if !ok {
				t.Fatalf("%T has no LinkTraffic", tr)
			}
			if name == "federated" {
				// Traffic on link (1, 0) only: the aliasing read would see it.
				tr.Send(2, 0, TagOf(1), []float64{1, 2, 3}, 0)
				if msgs, bytes := lc.LinkTraffic(1, 0); msgs != 1 || bytes != 3*wordBytes {
					t.Fatalf("link (1, 0) carried %d msgs / %d bytes, want 1 / %d", msgs, bytes, 3*wordBytes)
				}
			}
			for _, pair := range [][2]int{{0, nodes}, {nodes, 0}, {-1, 0}, {0, -1}} {
				func() {
					defer func() {
						r := recover()
						if r == nil {
							t.Errorf("LinkTraffic(%d, %d) on %d nodes did not panic", pair[0], pair[1], nodes)
							return
						}
						if msg, _ := r.(string); !strings.Contains(msg, "2 nodes") {
							t.Errorf("LinkTraffic(%d, %d) panicked with %v, want a message naming the node count", pair[0], pair[1], r)
						}
					}()
					msgs, bytes := lc.LinkTraffic(pair[0], pair[1])
					t.Errorf("LinkTraffic(%d, %d) returned %d msgs / %d bytes", pair[0], pair[1], msgs, bytes)
				}()
			}
		})
	}
}

package topology

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestNew1DRanks(t *testing.T) {
	g := New1D(4)
	if g.Size() != 4 || g.Dims() != 1 {
		t.Fatalf("size=%d dims=%d", g.Size(), g.Dims())
	}
	for i := 0; i < 4; i++ {
		if g.Rank(i) != i {
			t.Errorf("Rank(%d) = %d", i, g.Rank(i))
		}
		if g.RankAt(i) != i {
			t.Errorf("RankAt(%d) = %d", i, g.RankAt(i))
		}
	}
}

func TestNew2DRowMajor(t *testing.T) {
	g := New(3, 4)
	if g.Size() != 12 {
		t.Fatalf("size = %d", g.Size())
	}
	if g.Rank(0, 0) != 0 || g.Rank(0, 3) != 3 || g.Rank(1, 0) != 4 || g.Rank(2, 3) != 11 {
		t.Errorf("row-major rank mapping broken: %d %d %d %d",
			g.Rank(0, 0), g.Rank(0, 3), g.Rank(1, 0), g.Rank(2, 3))
	}
}

func TestCoordOfInvertsRank(t *testing.T) {
	g := New(3, 4, 2)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 2; k++ {
				r := g.Rank(i, j, k)
				c, ok := g.CoordOf(r)
				if !ok || c[0] != i || c[1] != j || c[2] != k {
					t.Errorf("CoordOf(%d) = %v,%v want [%d %d %d]", r, c, ok, i, j, k)
				}
			}
		}
	}
}

func TestSliceRow(t *testing.T) {
	g := New(4, 4)
	row2 := g.Slice(2, All)
	if row2.Dims() != 1 || row2.Size() != 4 {
		t.Fatalf("row: dims=%d size=%d", row2.Dims(), row2.Size())
	}
	want := []int{8, 9, 10, 11}
	for i, w := range want {
		if row2.RankAt(i) != w {
			t.Errorf("row2.RankAt(%d) = %d, want %d", i, row2.RankAt(i), w)
		}
	}
}

func TestSliceCol(t *testing.T) {
	g := New(4, 4)
	col1 := g.Slice(All, 1)
	want := []int{1, 5, 9, 13}
	for i, w := range want {
		if col1.RankAt(i) != w {
			t.Errorf("col1.RankAt(%d) = %d, want %d", i, col1.RankAt(i), w)
		}
	}
	if col1.Contains(2) {
		t.Error("col1 should not contain rank 2")
	}
	if !col1.Contains(9) {
		t.Error("col1 should contain rank 9")
	}
}

func TestSliceOfSlice(t *testing.T) {
	g := New(2, 3, 4)
	plane := g.Slice(1, All, All) // shape (3,4), base 12
	line := plane.Slice(All, 2)   // shape (3), ranks 14, 18, 22
	want := []int{14, 18, 22}
	for i, w := range want {
		if line.RankAt(i) != w {
			t.Errorf("line.RankAt(%d) = %d, want %d", i, line.RankAt(i), w)
		}
	}
}

func TestFullyFixedSliceIsSingleton(t *testing.T) {
	g := New(4, 4)
	one := g.Slice(3, 2)
	if one.Size() != 1 {
		t.Fatalf("size = %d", one.Size())
	}
	if one.RankAt(0) != 14 {
		t.Errorf("rank = %d, want 14", one.RankAt(0))
	}
	if !one.Contains(14) || one.Contains(13) {
		t.Error("membership wrong for singleton slice")
	}
}

func TestRowColHelpers(t *testing.T) {
	g := New(3, 5)
	if got := g.Row(1).Ranks(); len(got) != 5 || got[0] != 5 || got[4] != 9 {
		t.Errorf("Row(1) = %v", got)
	}
	if got := g.Col(2).Ranks(); len(got) != 3 || got[0] != 2 || got[2] != 12 {
		t.Errorf("Col(2) = %v", got)
	}
}

func TestIndexInvertsRankAt(t *testing.T) {
	g := New(4, 4).Slice(All, 3)
	for i := 0; i < g.Size(); i++ {
		r := g.RankAt(i)
		idx, ok := g.Index(r)
		if !ok || idx != i {
			t.Errorf("Index(RankAt(%d)) = %d,%v", i, idx, ok)
		}
	}
}

func TestContainsRejectsOutsiders(t *testing.T) {
	g := New(4, 4).Slice(All, 0) // ranks 0,4,8,12
	for r := 0; r < 16; r++ {
		want := r%4 == 0
		if g.Contains(r) != want {
			t.Errorf("Contains(%d) = %v, want %v", r, g.Contains(r), want)
		}
	}
}

func TestSlicePanicsOnBadSpec(t *testing.T) {
	g := New(4, 4)
	for _, spec := range [][]int{{1}, {All, All, All}, {4, All}, {-2, All}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%v) did not panic", spec)
				}
			}()
			g.Slice(spec...)
		}()
	}
}

func TestSlicesPartitionGrid(t *testing.T) {
	// Property: the rows of a 2-D grid partition its ranks.
	f := func(a, b uint8) bool {
		px, py := int(a%6)+1, int(b%6)+1
		g := New(px, py)
		seen := make(map[int]bool)
		for i := 0; i < px; i++ {
			for _, r := range g.Slice(i, All).Ranks() {
				if seen[r] {
					return false
				}
				seen[r] = true
			}
		}
		return len(seen) == g.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRankAtCoordRoundTripProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		g := New(int(a%5)+1, int(b%5)+1, int(c%5)+1)
		for i := 0; i < g.Size(); i++ {
			r := g.RankAt(i)
			coord, ok := g.CoordOf(r)
			if !ok {
				return false
			}
			if g.Rank(coord...) != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormat(t *testing.T) {
	g := New(2, 3)
	if got := g.String(); got != "grid(2x3)@0" {
		t.Errorf("String() = %q", got)
	}
	if got := g.Slice(1, All).String(); got != "grid(3)@3" {
		t.Errorf("slice String() = %q", got)
	}
}

// TestSliceThroughMemoized: SliceThrough is Slice with one dimension
// fixed, and every caller — many goroutines at once — gets one object per
// (dimension, coordinate).
func TestSliceThroughMemoized(t *testing.T) {
	g := New(3, 4, 5)
	const callers = 8
	got := make([][]*Grid, callers)
	var wg sync.WaitGroup
	for c := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := 0; d < g.Dims(); d++ {
				for i := 0; i < g.Extent(d); i++ {
					got[c] = append(got[c], g.SliceThrough(d, i))
				}
			}
		}()
	}
	wg.Wait()
	k := 0
	for d := 0; d < g.Dims(); d++ {
		for i := 0; i < g.Extent(d); i++ {
			spec := []int{All, All, All}
			spec[d] = i
			want := g.Slice(spec...)
			for c := range got {
				if got[c][k] != got[0][k] {
					t.Fatalf("SliceThrough(%d, %d): caller %d got another object", d, i, c)
				}
			}
			if s := got[0][k]; s.String() != want.String() || !slices.Equal(s.Ranks(), want.Ranks()) {
				t.Errorf("SliceThrough(%d, %d) = %v %v, want %v %v", d, i, s, s.Ranks(), want, want.Ranks())
			}
			k++
		}
	}
}

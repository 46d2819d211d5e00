package loc

import "testing"

func TestCountFileStatements(t *testing.T) {
	src := []byte(`package x

// Small has 2 statements.
func Small() int {
	a := 1
	return a
}

// Big has nested statements which all count.
func Big() int {
	total := 0
	for i := 0; i < 10; i++ {
		if i%2 == 0 {
			total += i
		}
	}
	return total
}
`)
	stats, err := Count(src, "Small", "Big")
	if err != nil {
		t.Fatal(err)
	}
	if stats["Small"].Statements != 2 {
		t.Errorf("Small statements = %d, want 2", stats["Small"].Statements)
	}
	if stats["Big"].Statements <= stats["Small"].Statements {
		t.Errorf("Big (%d) should exceed Small (%d)",
			stats["Big"].Statements, stats["Small"].Statements)
	}
	if stats["Big"].Lines < 5 {
		t.Errorf("Big lines = %d", stats["Big"].Lines)
	}
}

func TestCountFileMissingFunction(t *testing.T) {
	if _, err := Count([]byte("package x\nfunc A() {}\n"), "NoSuch"); err == nil {
		t.Fatal("missing function did not error")
	}
}

func TestCountFileParseError(t *testing.T) {
	if _, err := Count([]byte("this is not go"), "A"); err == nil {
		t.Fatal("parse error not reported")
	}
}

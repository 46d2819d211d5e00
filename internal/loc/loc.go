// Package loc measures program complexity for the paper's claim C1 ("the
// message passing version of a program is often five to ten times longer
// than the sequential version") by counting Go statements in named
// functions using go/parser. Statement counts are the language-neutral
// analogue of the Fortran line counts the paper talks about: they ignore
// comments, blank lines and formatting.
package loc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
)

// FuncStats describes the size of one function.
type FuncStats struct {
	// Name is the function's name.
	Name string
	// Statements is the number of statement nodes in the body,
	// including nested ones.
	Statements int
	// Lines is the source line span of the body.
	Lines int
}

// Count returns statistics for the named functions of one Go source file,
// given as its contents (a package that embeds its own source hands it
// over, so the count does not depend on the working directory). Functions
// not found are reported as an error, so experiments fail loudly when a
// refactor renames their subjects.
func Count(src []byte, names ...string) (map[string]FuncStats, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "", src, 0)
	if err != nil {
		return nil, fmt.Errorf("loc: %w", err)
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := make(map[string]FuncStats)
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !want[fd.Name.Name] {
			continue
		}
		stmts := 0
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if n == ast.Node(fd.Body) {
				return true // the root block is the body, not a statement of it
			}
			if _, isStmt := n.(ast.Stmt); isStmt {
				stmts++
			}
			return true
		})
		start := fset.Position(fd.Body.Lbrace).Line
		end := fset.Position(fd.Body.Rbrace).Line
		out[fd.Name.Name] = FuncStats{
			Name:       fd.Name.Name,
			Statements: stmts,
			Lines:      end - start + 1,
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("loc: function %q not found", n)
		}
	}
	return out, nil
}

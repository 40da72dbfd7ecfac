package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestCommandDocs: the package comment and the "missing command" error
// list exactly the commands run dispatches, in the same order, and
// README's layout row names each.
func TestCommandDocs(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var dispatched []string
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "run" {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if cc, ok := n.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							name, _ := strconv.Unquote(lit.Value)
							dispatched = append(dispatched, name)
						}
					}
				}
				return true
			})
		}
	}
	_, list, _ := strings.Cut(f.Doc.Text(), "Commands:\n\n")
	list, _, _ = strings.Cut(list, "\n\n")
	var documented []string
	for _, line := range strings.Split(list, "\n") {
		documented = append(documented, strings.Fields(line)[0])
	}
	if len(dispatched) == 0 || strings.Join(documented, " ") != strings.Join(dispatched, " ") {
		t.Errorf("package comment lists %v, run dispatches %v", documented, dispatched)
	}
	want := "missing command (" + strings.Join(dispatched, "|") + ")"
	if err := run(nil); err == nil || err.Error() != want {
		t.Errorf("calctl with no command: %v, want %q", err, want)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, row, _ := strings.Cut(string(readme), "| `cmd/calctl` |")
	row, _, _ = strings.Cut(row, "\n")
	for _, name := range dispatched {
		if !strings.Contains(row, "`"+name+"`") {
			t.Errorf("README's cmd/calctl layout row omits %q", name)
		}
	}
}

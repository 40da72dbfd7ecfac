package caladrius_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"testing"
)

// TestEverySettingIsRead holds the daemon's settings table to the rule
// that a feature names its user: for every row of internal/config's
// settings, non-test code outside internal/config reads the Config field
// the row sets. A setting only tests and the config package itself read
// is a value nobody can change the behaviour of; it becomes a constant
// beside the code that uses it.
func TestEverySettingIsRead(t *testing.T) {
	l := newLoader(t)
	for _, top := range []string{"cmd", "examples", "internal"} {
		for _, dir := range l.dirs(top) {
			l.load(dir)
		}
	}
	l.load("benchmark")

	rows := settingRows(t, l.load("internal/config"))
	read := map[types.Object]bool{}
	for _, p := range l.ordered {
		if p.rel == "internal/config" {
			continue
		}
		for _, f := range p.files {
			written := map[*ast.SelectorExpr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok == token.ASSIGN {
						for _, lhs := range n.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								written[sel] = true
							}
						}
					}
				case *ast.SelectorExpr:
					if !written[n] {
						read[p.info.Uses[n.Sel]] = true
					}
				}
				return true
			})
		}
	}
	for _, r := range rows {
		if !read[r.field] {
			t.Errorf("setting %s: no program reads Config.%s; make it a constant beside its user", r.name, r.field.Name())
		}
	}
	if len(rows) == 0 {
		t.Fatal("found no rows in internal/config's settings table")
	}
}

// settingRow is one row of the settings table as the source spells it.
type settingRow struct {
	name  string // "key (-flag)", as config's own messages name it
	field types.Object
}

// settingRows reads the settings table from internal/config's source:
// each row's field is what its accessor returns the address of.
func settingRows(t *testing.T, config *pkg) []settingRow {
	var rows []settingRow
	for _, f := range config.files {
		ast.Inspect(f, func(n ast.Node) bool {
			spec, ok := n.(*ast.ValueSpec)
			if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "settings" {
				return true
			}
			for _, elt := range spec.Values[0].(*ast.CompositeLit).Elts {
				row := elt.(*ast.CompositeLit).Elts
				ret := row[0].(*ast.FuncLit).Body.List[0].(*ast.ReturnStmt).Results[0]
				sel := ret.(*ast.UnaryExpr).X.(*ast.SelectorExpr)
				key, err1 := strconv.Unquote(row[1].(*ast.BasicLit).Value)
				flag, err2 := strconv.Unquote(row[2].(*ast.BasicLit).Value)
				if err1 != nil || err2 != nil {
					t.Fatalf("settings row for %s: key or flag is not a string literal", sel.Sel.Name)
				}
				name := key + " (-" + flag + ")"
				switch {
				case flag == "":
					name = key
				case key == "":
					name = "-" + flag
				}
				rows = append(rows, settingRow{name: name, field: config.info.Uses[sel.Sel]})
			}
			return false
		})
	}
	return rows
}

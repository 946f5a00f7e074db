package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// switchFigures returns the string cases of run's switch, read from
// main.go's source so the test tracks the switch itself.
func switchFigures(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "run" {
			continue
		}
		for _, st := range fn.Body.List {
			sw, ok := st.(*ast.SwitchStmt)
			if !ok {
				continue
			}
			for _, c := range sw.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					lit, ok := e.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						t.Fatalf("non-literal case %T in run's switch", e)
					}
					s, _ := strconv.Unquote(lit.Value)
					names = append(names, s)
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatal("found no cases in run's switch")
	}
	return names
}

func TestUnknownFigureNamesEveryFigure(t *testing.T) {
	want := switchFigures(t)
	slices.Sort(want)
	err := run("no-such-figure", 1, 1, 1, false)
	if err == nil {
		t.Fatal("run accepted an unknown figure")
	}
	_, list, ok := strings.Cut(err.Error(), "want one of ")
	if !ok {
		t.Fatalf("unknown-figure error %q lists no figures", err)
	}
	named := strings.Split(strings.TrimSuffix(list, ")"), ", ")
	slices.Sort(named)
	if !slices.Equal(named, want) {
		t.Errorf("unknown-figure error names %v, run's switch accepts %v", named, want)
	}
}

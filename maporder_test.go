package iqpaths

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// simulatedPath lists the packages whose output the figure goldens and
// the seeded benchmarks pin: their non-test code must not depend on Go's
// randomised map iteration order.
var simulatedPath = []string{
	"simnet", "pgos", "sched", "stream", "video", "gridftp", "smartpointer",
	"experiment", "faults", "control", "gossip", "bwest", "overlay", "predict",
	"stats", "trace",
}

// TestNoMapOrderIteration fails on any range over a map-typed value in the
// non-test code of the simulated-path packages unless the line above
// carries a "// maporder: <reason>" comment saying why the order cannot
// matter (the keys are collected and then sorted, the loop body is an
// order-free set update, ...).
func TestNoMapOrderIteration(t *testing.T) {
	m := &srcImporter{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*checkedPkg{}}
	for _, name := range simulatedPath {
		c, err := m.check(filepath.Join("internal", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range c.files {
			// justified holds the lines a comment opening with
			// "// maporder: <reason>" ends on.
			justified := map[int]bool{}
			for _, cg := range f.Comments {
				if reason, ok := strings.CutPrefix(cg.List[0].Text, "// maporder:"); ok && strings.TrimSpace(reason) != "" {
					justified[m.fset.Position(cg.End()).Line] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				if _, isMap := c.info.TypeOf(rs.X).Underlying().(*types.Map); isMap {
					if pos := m.fset.Position(rs.Pos()); !justified[pos.Line-1] {
						t.Errorf("%s: range over a map without a // maporder: comment on the line above", pos)
					}
				}
				return true
			})
		}
	}
}

// srcImporter type-checks this module's packages from source, keeping
// their syntax and types, and takes the standard library from its
// compiled export data.
type srcImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*checkedPkg
}

type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (m *srcImporter) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, "iqpaths/")
	if path == "iqpaths" {
		dir, ok = ".", true
	}
	if !ok {
		return m.std.Import(path)
	}
	c, err := m.check(filepath.FromSlash(dir))
	if err != nil {
		return nil, err
	}
	return c.pkg, nil
}

// check type-checks the non-test files of the package in dir (relative
// to the module root) once.
func (m *srcImporter) check(dir string) (*checkedPkg, error) {
	if c := m.pkgs[dir]; c != nil {
		return c, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	c := &checkedPkg{info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	conf := types.Config{Importer: m}
	path := "iqpaths"
	if dir != "." {
		path += "/" + filepath.ToSlash(dir)
	}
	if c.pkg, err = conf.Check(path, m.fset, c.files, c.info); err != nil {
		return nil, err
	}
	m.pkgs[dir] = c
	return c, nil
}

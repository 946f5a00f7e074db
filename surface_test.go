package iqpaths

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// productDirs lists every directory of non-test code that counts as a
// caller: the module's packages and the perfbench module, which builds
// against this one.
func productDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		names, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			return err
		}
		for _, n := range names {
			if !strings.HasSuffix(n, "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// exemption reports whether a doc comment carries a "// testonly: <reason>"
// or "// knob: <reason>" line. bad is set when such a line gives no reason.
func exemption(doc *ast.CommentGroup) (exempt, bad bool) {
	if doc == nil {
		return false, false
	}
	for _, c := range doc.List {
		for _, tag := range []string{"// testonly:", "// knob:"} {
			if reason, ok := strings.CutPrefix(c.Text, tag); ok {
				if strings.TrimSpace(reason) == "" {
					return false, true
				}
				exempt = true
			}
		}
	}
	return exempt, false
}

// isKnobStruct reports whether a type name is one of the configuration
// structs whose fields count as knobs: run-level configuration and the
// per-stream specification (stream.Spec).
func isKnobStruct(name string) bool {
	for _, suffix := range []string{"Config", "Params", "Options", "Spec"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// knobStructs returns the names of pkg's struct types whose exported
// fields count as knobs: every *Config, *Params, *Options or *Spec struct
// and, transitively, every exported struct type of pkg that is the type
// of an exported field of a counted struct, or the element type of such
// a field's slice (through pointers).
func knobStructs(pkg *types.Package) map[string]bool {
	counted := map[string]bool{}
	var add func(name string)
	add = func(name string) {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || counted[name] {
			return
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			return
		}
		counted[name] = true
		for i := 0; i < st.NumFields(); i++ {
			if !st.Field(i).Exported() {
				continue
			}
			t := st.Field(i).Type()
			for {
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				} else if s, ok := t.(*types.Slice); ok {
					t = s.Elem()
				} else {
					break
				}
			}
			if n, ok := t.(*types.Named); ok && n.Obj().Pkg() == pkg && n.Obj().Exported() {
				add(n.Obj().Name())
			}
		}
	}
	for _, name := range pkg.Scope().Names() {
		if isKnobStruct(name) {
			add(name)
		}
	}
	return counted
}

// TestNoTestOnlySurface fails on surface that only tests use:
//   - an exported function or method declared in non-test code under
//     internal/ that no non-test code of the module or of perfbench
//     references (a method that implements an interface method counts as
//     referenced);
//   - an exported field of an internal *Config, *Params, *Options or *Spec
//     struct, or of an exported struct such a struct's fields hold
//     (knobStructs),
//     that no such code sets, by a composite-literal key, an assignment or
//     taking its address, outside a defaults method (see markSets).
//
// A "// testonly: <reason>" or "// knob: <reason>" line in the doc comment
// exempts a declaration. It is for fixtures and reference oracles that
// another package's tests use, and for values a named test or golden must
// set differently from the default; an exemption on a declaration that
// product code does use is stale and fails too.
func TestNoTestOnlySurface(t *testing.T) {
	m := &srcImporter{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*checkedPkg{}}
	var pkgs []*checkedPkg
	for _, dir := range productDirs(t) {
		c, err := m.check(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, c)
	}

	fmtPkg, err := m.std.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	// The interfaces a method may implement: every one declared in or
	// typing an expression of product code, plus fmt.Stringer and error,
	// which fmt's verbs satisfy without naming them.
	ifaces := map[*types.Interface]bool{
		fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface): true,
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface):    true,
	}
	addIface := func(typ types.Type) {
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	used := map[types.Object][]token.Pos{}
	set := map[*types.Var]bool{}
	for _, c := range pkgs {
		for id, obj := range c.info.Uses {
			used[origin(obj)] = append(used[origin(obj)], id.Pos())
		}
		for _, obj := range c.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, tv := range c.info.Types {
			addIface(tv.Type)
		}
		for _, f := range c.files {
			markSets(f, c.info, set)
		}
	}

	knobs := 0
	for _, c := range pkgs {
		if !strings.HasPrefix(c.pkg.Path(), "iqpaths/internal/") {
			continue
		}
		knobTypes := knobStructs(c.pkg)
		for _, f := range c.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					fn := c.info.Defs[d.Name].(*types.Func)
					referenced := implementsInterface(fn, ifaces)
					for _, p := range used[fn] {
						if p < d.Pos() || p >= d.End() {
							referenced = true
						}
					}
					checkDecl(t, m.fset, d.Pos(), d.Doc, referenced, "exported "+describe(fn)+" is referenced by no non-test code")
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || !knobTypes[ts.Name.Name] {
							continue
						}
						st, ok := ts.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, name := range field.Names {
								if !name.IsExported() {
									continue
								}
								knobs++
								v := c.info.Defs[name].(*types.Var)
								checkDecl(t, m.fset, name.Pos(), field.Doc, set[v], "field "+ts.Name.Name+"."+name.Name+" is set by no non-test code")
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d exported fields in internal *Config/*Params/*Options/*Spec structs and the structs they hold", knobs)
}

// checkDecl reports a declaration that product code does not use unless it
// is exempt, and an exemption that is malformed or no longer needed.
func checkDecl(t *testing.T, fset *token.FileSet, pos token.Pos, doc *ast.CommentGroup, used bool, msg string) {
	t.Helper()
	exempt, bad := exemption(doc)
	switch {
	case bad:
		t.Errorf("%s: // testonly: or // knob: line without a reason", fset.Position(pos))
	case used && exempt:
		t.Errorf("%s: stale // testonly: or // knob: line: non-test code uses this declaration", fset.Position(pos))
	case !used && !exempt:
		t.Errorf("%s: %s", fset.Position(pos), msg)
	}
}

func describe(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "method " + types.TypeString(recv.Type(), types.RelativeTo(fn.Pkg())) + "." + fn.Name()
	}
	return "function " + fn.Pkg().Name() + "." + fn.Name()
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// implementsInterface reports whether fn is a method through which its
// receiver type satisfies one of ifaces.
func implementsInterface(fn *types.Func, ifaces map[*types.Interface]bool) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for it := range ifaces {
		if obj, _, _ := types.LookupFieldOrMethod(it, false, nil, fn.Name()); obj == nil {
			continue
		}
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// markSets records every struct field that f sets outside a defaults
// method (one whose name contains "default", such as fillDefaults): a
// composite-literal key (or every field of an unkeyed literal), an
// assignment or increment target, or an operand of &. An assignment in the
// body of an if whose condition reads the same field (if c.X == 0 {
// c.X = 10 }) fills a default and does not count. A function that builds
// a value, such as DefaultBands, sets the fields it fills.
func markSets(f *ast.File, info *types.Info, set map[*types.Var]bool) {
	fieldOf := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := origin(info.Uses[sel.Sel]).(*types.Var); ok && v.IsField() {
				return v
			}
		}
		return nil
	}
	fills := map[ast.Expr]bool{}
	field := func(e ast.Expr) {
		if fills[e] {
			return
		}
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.StarExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				if v, ok := origin(info.Uses[x.Sel]).(*types.Var); ok && v.IsField() {
					set[v] = true
				}
				e = x.X
				continue
			}
			return
		}
	}
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && strings.Contains(strings.ToLower(fd.Name.Name), "default") {
			continue
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.IfStmt:
				read := map[*types.Var]bool{}
				ast.Inspect(x.Cond, func(n ast.Node) bool {
					if e, ok := n.(ast.Expr); ok {
						if v := fieldOf(e); v != nil {
							read[v] = true
						}
					}
					return true
				})
				for _, st := range x.Body.List {
					if as, ok := st.(*ast.AssignStmt); ok {
						for _, lhs := range as.Lhs {
							if v := fieldOf(lhs); v != nil && read[v] {
								fills[lhs] = true
							}
						}
					}
				}
			case *ast.CompositeLit:
				typ := info.TypeOf(x)
				if p, ok := typ.Underlying().(*types.Pointer); ok {
					typ = p.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if v, ok := origin(info.Uses[kv.Key.(*ast.Ident)]).(*types.Var); ok {
							set[v] = true
						}
					} else if i < st.NumFields() {
						set[origin(st.Field(i)).(*types.Var)] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					field(lhs)
				}
			case *ast.IncDecStmt:
				field(x.X)
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					field(x.X)
				}
			}
			return true
		})
	}
}

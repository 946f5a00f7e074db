package iqpaths

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents that describe the code as it is. ROADMAP.md
// and CHANGES.md name deleted code on purpose and are not checked.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// docRef matches an inline code span naming pkg.Ident or pkg.Type.Member,
// optionally called: `stats.BuildCDF`, `pgos.Scheduler.SetPaths(paths)`.
var docRef = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?(?:\(.*\))?$`)

// moduleDecls maps each package name of the module (and of perfbench) to
// its top-level identifiers, and each "pkg.Type" to the fields and
// methods declared on it, from test and non-test files alike.
type moduleDecls struct {
	idents  map[string]map[string]bool
	members map[string]map[string]bool
	isType  map[string]bool
}

func loadModuleDecls(t *testing.T) *moduleDecls {
	t.Helper()
	d := &moduleDecls{idents: map[string]map[string]bool{}, members: map[string]map[string]bool{}, isType: map[string]bool{}}
	add := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = map[string]bool{}
		}
		m[k][v] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if name := e.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		for _, decl := range f.Decls {
			switch x := decl.(type) {
			case *ast.FuncDecl:
				if x.Recv == nil {
					add(d.idents, pkg, x.Name.Name)
					continue
				}
				typ := x.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				switch g := typ.(type) {
				case *ast.IndexExpr:
					typ = g.X
				case *ast.IndexListExpr:
					typ = g.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					add(d.members, pkg+"."+id.Name, x.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range x.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(d.idents, pkg, n.Name)
						}
					case *ast.TypeSpec:
						add(d.idents, pkg, s.Name.Name)
						d.isType[pkg+"."+s.Name.Name] = true
						var fields *ast.FieldList
						switch tt := s.Type.(type) {
						case *ast.StructType:
							fields = tt.Fields
						case *ast.InterfaceType:
							fields = tt.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, n := range fl.Names {
								add(d.members, pkg+"."+s.Name.Name, n.Name)
							}
							if len(fl.Names) == 0 { // embedded: named by its type
								typ := fl.Type
								if star, ok := typ.(*ast.StarExpr); ok {
									typ = star.X
								}
								if sel, ok := typ.(*ast.SelectorExpr); ok {
									typ = sel.Sel
								}
								if id, ok := typ.(*ast.Ident); ok {
									add(d.members, pkg+"."+s.Name.Name, id.Name)
								}
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// codeSpans returns the inline code spans of a Markdown document outside
// fenced blocks, with the line each starts on.
func codeSpans(t *testing.T, path string) (spans []string, lines []int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	fenced := false
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		parts := strings.Split(line, "`")
		for i := 1; i < len(parts)-1; i += 2 {
			spans = append(spans, parts[i])
			lines = append(lines, n)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans, lines
}

// TestDocsNameDeclarations fails when README.md, DESIGN.md or
// EXPERIMENTS.md names, in backticks, a `pkg.Ident` or `pkg.Type.Member`
// of one of this module's packages that no declaration in the module
// matches — a document still pointing at renamed or deleted code.
func TestDocsNameDeclarations(t *testing.T) {
	d := loadModuleDecls(t)
	for _, doc := range docFiles {
		spans, lines := codeSpans(t, doc)
		for i, span := range spans {
			m := docRef.FindStringSubmatch(span)
			if m == nil || d.idents[m[1]] == nil {
				continue // not a reference into this module
			}
			pkg, ident, member := m[1], m[2], m[3]
			switch {
			case !d.idents[pkg][ident]:
				t.Errorf("%s:%d: `%s`: package %s declares no %s", doc, lines[i], span, pkg, ident)
			case member != "" && d.isType[pkg+"."+ident] && !d.members[pkg+"."+ident][member]:
				t.Errorf("%s:%d: `%s`: %s.%s has no field or method %s", doc, lines[i], span, pkg, ident, member)
			}
		}
	}
}

// docPathPrefixes are the top-level directories whose paths a document
// names in code spans; rootFile matches a file at the repository root.
var (
	docPathPrefixes = []string{"internal/", "cmd/", "ci/", "perfbench/", "examples/"}
	rootFile        = regexp.MustCompile(`^(?:[A-Z][A-Z_]*\.(?:md|json)|Makefile|go\.mod)$`)
)

// docPath reports the repo path a code-span word names, if it names one:
// a path under docPathPrefixes (`./` and a `/...` package pattern
// stripped) or a root file. Globs and placeholders are not paths.
func docPath(word string) (string, bool) {
	word = strings.TrimSuffix(strings.TrimPrefix(word, "./"), "/...")
	if strings.ContainsAny(word, "*{<") {
		return "", false
	}
	if rootFile.MatchString(word) {
		return word, true
	}
	for _, pre := range docPathPrefixes {
		if strings.HasPrefix(word, pre) {
			return word, true
		}
	}
	return "", false
}

// TestDocsNamePathsAndTargets fails when README.md, DESIGN.md or
// EXPERIMENTS.md names, in a code span, a repo path that does not exist
// or a `make` target the Makefile does not define.
func TestDocsNamePathsAndTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([\w-]+):`).FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	for _, doc := range docFiles {
		spans, lines := codeSpans(t, doc)
		for i, span := range spans {
			words := strings.Fields(span)
			if len(words) > 1 && words[0] == "make" && !targets[words[1]] {
				t.Errorf("%s:%d: `%s`: the Makefile defines no target %s", doc, lines[i], span, words[1])
			}
			for _, w := range words {
				if p, ok := docPath(w); ok {
					if _, err := os.Stat(p); err != nil {
						t.Errorf("%s:%d: `%s`: no such path %s", doc, lines[i], span, p)
					}
				}
			}
		}
	}
}

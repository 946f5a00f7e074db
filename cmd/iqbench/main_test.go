package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"iqpaths/internal/experiment"
)

// TestLookupNamesEveryFigure: every registered name resolves, and the
// unknown-figure error lists exactly the names the registry accepts.
func TestLookupNamesEveryFigure(t *testing.T) {
	want := experiment.FigureNames()
	for _, name := range want {
		if _, err := experiment.Lookup(name); err != nil {
			t.Errorf("registered name %q does not resolve: %v", name, err)
		}
	}
	_, err := experiment.Lookup("no-such-figure")
	if err == nil {
		t.Fatal("Lookup accepted an unknown figure")
	}
	_, list, ok := strings.Cut(err.Error(), "want one of ")
	if !ok {
		t.Fatalf("unknown-figure error %q lists no figures", err)
	}
	if named := strings.Split(strings.TrimSuffix(list, ")"), ", "); !slices.Equal(named, want) {
		t.Errorf("unknown-figure error names %v, the registry accepts %v", named, want)
	}
}

// TestDocsNameRegisteredFigures keeps every `iqbench -fig <name>` in the
// docs, the Makefile and CI pointing at a registered figure or group.
func TestDocsNameRegisteredFigures(t *testing.T) {
	re := regexp.MustCompile(`iqbench -fig ([^\s` + "`" + `]+)`)
	seen := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile", ".github/workflows/ci.yml"} {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(b), -1) {
			seen++
			if _, err := experiment.Lookup(m[1]); err != nil {
				t.Errorf("%s: iqbench -fig %s: %v", doc, m[1], err)
			}
		}
	}
	if seen == 0 {
		t.Fatal("found no iqbench -fig invocations in the docs")
	}
}

func TestSizeList(t *testing.T) {
	got, err := sizeList("nodes", " 100, 1000,,5 ")
	if err != nil || !slices.Equal(got, []int{100, 1000, 5}) {
		t.Fatalf("sizeList = %v, %v", got, err)
	}
	for _, bad := range []string{"0", "-3", "x"} {
		if _, err := sizeList("paths", bad); err == nil || !strings.HasPrefix(err.Error(), "-paths: ") {
			t.Errorf("sizeList(%q) error = %v, want a -paths error", bad, err)
		}
	}
}

func TestUnknownBandNamesDefaultBands(t *testing.T) {
	_, err := matrixConfig("", "", "nope", "")
	if err == nil {
		t.Fatal("matrixConfig accepted an unknown band")
	}
	for _, b := range experiment.DefaultBands() {
		if !strings.Contains(err.Error(), b.Name) {
			t.Errorf("unknown-band error %q does not name band %q", err, b.Name)
		}
	}
}

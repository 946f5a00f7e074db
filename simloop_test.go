package iqpaths

import (
	"errors"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"testing"
)

// simLoop is the one file whose non-test code may step a simulated
// network: experiment.Run's.
var simLoop = filepath.Join("internal", "experiment", "runner.go")

// TestOneSimulatedLoop fails when non-test code under internal/ other
// than simLoop calls (*simnet.Network).Step or takes it as a method
// value. experiment.Run owns the simulated clock, so whatever needs
// ticks — a probe train, a workload, a figure's measurement — runs
// inside its loop instead of in a loop of its own beside it.
func TestOneSimulatedLoop(t *testing.T) {
	const step = "(*iqpaths/internal/simnet.Network).Step"
	m := &srcImporter{fset: token.NewFileSet(), std: importer.Default(), pkgs: map[string]*checkedPkg{}}
	var nogo *build.NoGoError
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		c, err := m.check(dir)
		if errors.As(err, &nogo) {
			return nil
		}
		if err != nil {
			return err
		}
		for id, obj := range c.info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.FullName() == step {
				if pos := m.fset.Position(id.Pos()); pos.Filename != simLoop {
					t.Errorf("%s: steps a simulated network outside experiment.Run (%s)", pos, simLoop)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

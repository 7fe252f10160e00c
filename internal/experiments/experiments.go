// Package experiments regenerates every table and figure of the paper's
// evaluation section on synthetic stand-in workloads, because no dataset
// ships in the repo.
//
// Each experiment is a function taking a *Lab and returning a typed
// result with a Render method that prints the same rows/series the paper
// reports. The Lab owns the trained baseline models and caches them on
// disk so repeated runs (CLI, benchmarks) do not retrain.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"

	"burstsnn/internal/core"
	"burstsnn/internal/dataset"
	"burstsnn/internal/dnn"
	"burstsnn/internal/mathx"
)

// Settings scales the experiment workloads. The defaults run the full
// harness in minutes on a small CPU box; raise Steps/Images to approach
// the paper's budgets.
type Settings struct {
	// Steps is the simulation budget per image (the paper used 1,500 for
	// CIFAR-10; orderings stabilize far earlier).
	Steps int
	// Images is the number of test images evaluated per configuration.
	Images int
	// PatternSteps and PatternImages size the spike-pattern recordings
	// (Figs. 1, 2, 5).
	PatternSteps  int
	PatternImages int
	// ModelDir caches trained baseline models (default: os.TempDir()/
	// burstsnn-models). Training is deterministic, so cached and fresh
	// models are identical.
	ModelDir string
	// Tiny swaps the baseline recipes for much smaller datasets and
	// training budgets. Intended for unit tests; the resulting numbers
	// keep the orderings but not the magnitudes.
	Tiny bool
	// Log receives progress lines when non-nil.
	Log io.Writer
}

// DefaultSettings returns the harness defaults.
func DefaultSettings() Settings {
	return Settings{
		Steps:         192,
		Images:        40,
		PatternSteps:  128,
		PatternImages: 3,
		ModelDir:      filepath.Join(os.TempDir(), "burstsnn-models"),
	}
}

// QuickSettings returns a drastically reduced configuration for smoke
// tests: tiny models, short runs, and no disk cache.
func QuickSettings() Settings {
	s := DefaultSettings()
	s.Steps = 48
	s.Images = 10
	s.PatternSteps = 48
	s.PatternImages = 2
	s.Tiny = true
	s.ModelDir = ""
	return s
}

// Model is a trained baseline: the DNN, its training data, and its
// accuracy (the "DNN" column of the paper's tables).
type Model struct {
	Name   string
	Spec   dnn.Spec
	Net    *dnn.Network
	Set    *dataset.Set
	DNNAcc float64
}

// Lab owns settings plus the trained-model and evaluation caches shared
// by the experiments (Table 1, Figs. 3-5 reuse the same grid runs).
type Lab struct {
	Settings Settings

	mu     sync.Mutex
	models map[string]*Model
	evals  map[evalKey]*core.EvalResult
}

// NewLab creates a Lab.
func NewLab(s Settings) *Lab {
	return &Lab{Settings: s, models: map[string]*Model{}}
}

func (l *Lab) logf(format string, args ...any) {
	if l.Settings.Log != nil {
		fmt.Fprintf(l.Settings.Log, format, args...)
	}
}

// modelRecipe fully determines one baseline model.
type modelRecipe struct {
	name   string
	build  func() (*dataset.Set, dnn.Spec)
	lr     float64
	epochs int
	minAcc float64 // sanity floor; training below this is an error
}

// recipesFor returns the model recipes for the settings; Tiny swaps in
// reduced datasets and budgets for fast tests.
func recipesFor(s Settings) map[string]modelRecipe {
	if s.Tiny {
		return map[string]modelRecipe{
			"digits": {
				name: "digits",
				build: func() (*dataset.Set, dnn.Spec) {
					set := dataset.SynthDigits(dataset.DigitsConfig{TrainPerClass: 50, TestPerClass: 8, Noise: 0.04, Seed: 1009})
					return set, dnn.MLP(1, 28, 28, []int{48}, 10)
				},
				lr: 0.01, epochs: 12, minAcc: 0.85,
			},
			"textures10": {
				name: "textures10",
				build: func() (*dataset.Set, dnn.Spec) {
					cfg := dataset.DefaultTexturesConfig()
					cfg.TrainPerClass, cfg.TestPerClass = 40, 8
					set := dataset.SynthTextures(cfg)
					return set, dnn.LeNetMini(3, 16, 16, 10)
				},
				lr: 0.005, epochs: 4, minAcc: 0.85,
			},
			"textures100": {
				name: "textures100",
				build: func() (*dataset.Set, dnn.Spec) {
					cfg := dataset.DefaultTextures100Config()
					cfg.TrainPerClass, cfg.TestPerClass = 12, 2
					set := dataset.SynthTextures(cfg)
					return set, dnn.LeNetMini(3, 16, 16, 100)
				},
				lr: 0.005, epochs: 6, minAcc: 0.25,
			},
		}
	}
	return map[string]modelRecipe{
		// MNIST stand-in: LeNet-mini on synthetic digit glyphs (the "CNN"
		// rows of Table 2).
		"digits": {
			name: "digits",
			build: func() (*dataset.Set, dnn.Spec) {
				set := dataset.SynthDigits(dataset.DefaultDigitsConfig())
				return set, dnn.LeNetMini(1, 28, 28, 10)
			},
			lr: 0.002, epochs: 3, minAcc: 0.90,
		},
		// CIFAR-10 stand-in: VGG-mini on 10-class synthetic textures.
		"textures10": {
			name: "textures10",
			build: func() (*dataset.Set, dnn.Spec) {
				set := dataset.SynthTextures(dataset.DefaultTexturesConfig())
				return set, dnn.VGGMini(3, 16, 16, 10)
			},
			lr: 0.002, epochs: 2, minAcc: 0.90,
		},
		// CIFAR-100 stand-in: VGG-mini on 100 fine-grained texture classes.
		"textures100": {
			name: "textures100",
			build: func() (*dataset.Set, dnn.Spec) {
				set := dataset.SynthTextures(dataset.DefaultTextures100Config())
				return set, dnn.VGGMini(3, 16, 16, 100)
			},
			lr: 0.002, epochs: 4, minAcc: 0.55,
		},
	}
}

// Model returns the named trained baseline ("digits", "textures10",
// "textures100"), training it on first use and caching in memory and on
// disk.
func (l *Lab) Model(name string) (*Model, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m, ok := l.models[name]; ok {
		return m, nil
	}
	recipe, ok := recipesFor(l.Settings)[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown model %q", name)
	}
	set, spec := recipe.build()

	m := &Model{Name: name, Spec: spec, Set: set}
	path := ""
	if l.Settings.ModelDir != "" {
		path = filepath.Join(l.Settings.ModelDir, name+".gob")
		// A file written under another recipe (another scale shares the
		// directory) or gone stale is retrained below.
		if specLoaded, netLoaded, err := dnn.LoadModelFile(path); err == nil && reflect.DeepEqual(specLoaded, spec) {
			m.Net = netLoaded
			m.DNNAcc = dnn.Evaluate(netLoaded, set.Test)
			if m.DNNAcc >= recipe.minAcc {
				l.logf("loaded cached %s model (DNN acc %.4f)\n", name, m.DNNAcc)
				l.models[name] = m
				return m, nil
			}
		}
	}

	l.logf("training %s baseline (%d train images, %d epochs)...\n",
		name, len(set.Train), recipe.epochs)
	net, err := dnn.Build(spec, mathx.NewRNG(4242))
	if err != nil {
		return nil, err
	}
	stats := dnn.Train(net, set, dnn.NewAdam(recipe.lr), dnn.TrainConfig{
		Epochs: recipe.epochs, BatchSize: 32, Seed: 99, Log: l.Settings.Log,
	})
	m.Net = net
	// The last epoch scored the finished net on the test set already.
	m.DNNAcc = stats[len(stats)-1].TestAcc
	if m.DNNAcc < recipe.minAcc {
		return nil, fmt.Errorf("experiments: %s baseline trained to %.4f, below the %.2f floor", name, m.DNNAcc, recipe.minAcc)
	}
	if path != "" {
		if err := os.MkdirAll(l.Settings.ModelDir, 0o755); err == nil {
			if err := dnn.SaveModelFile(path, spec, net); err != nil {
				l.logf("warning: could not cache model: %v\n", err)
			}
		}
	}
	l.logf("%s baseline ready (DNN acc %.4f)\n", name, m.DNNAcc)
	l.models[name] = m
	return m, nil
}

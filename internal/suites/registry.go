// The suite registry: every suite Perspector can resolve by name, built
// from embedded declarative spec files. Each specs/<name>.json document
// is the one definition of its suite. The six Table-III stock suites
// come first in paper order — they remain the All() set every paper
// figure and default compare run reads — followed by the other families
// sorted by name. Listings, CLI help, and the unknown-suite error all
// derive from this one table, so a newly added spec file can never drift
// out of them. Editing a stock spec moves measured counters and scores:
// the hex-float goldens and TestGoldenDeterminism must be updated
// knowingly in the same change.
package suites

import (
	"embed"
	"fmt"
	"sort"
	"strings"
)

//go:embed specs/*.json
var specFS embed.FS

// stockNames lists the six Table-III suites in paper order.
var stockNames = []string{"parsec", "spec17", "ligra", "lmbench", "nbench", "sgxgauge"}

type registryEntry struct {
	name string
	spec *SuiteSpec
}

// registry holds every embedded suite spec: stock six first in paper
// order, then the extra families sorted by name.
var registry = loadRegistry()

func loadRegistry() []registryEntry {
	entries, err := specFS.ReadDir("specs")
	if err != nil {
		panic(fmt.Sprintf("suites: embedded specs: %v", err))
	}
	byName := make(map[string]*SuiteSpec, len(entries))
	for _, e := range entries {
		data, err := specFS.ReadFile("specs/" + e.Name())
		if err != nil {
			panic(fmt.Sprintf("suites: embedded spec %s: %v", e.Name(), err))
		}
		sp, err := UnmarshalSuiteSpec(data)
		if err != nil {
			panic(fmt.Sprintf("suites: embedded spec %s: %v", e.Name(), err))
		}
		want := strings.TrimSuffix(e.Name(), ".json")
		if sp.Name != want {
			panic(fmt.Sprintf("suites: embedded spec %s names suite %q", e.Name(), sp.Name))
		}
		byName[sp.Name] = sp
	}
	var out []registryEntry
	for _, name := range stockNames {
		sp, ok := byName[name]
		if !ok {
			panic(fmt.Sprintf("suites: stock suite %q has no embedded spec", name))
		}
		out = append(out, registryEntry{name: name, spec: sp})
		delete(byName, name)
	}
	extra := make([]string, 0, len(byName))
	for name := range byName {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		out = append(out, registryEntry{name: name, spec: byName[name]})
	}
	return out
}

// Names returns every registered suite name, stock six first in paper
// order. CLI help, server listings, and the unknown-suite error text all
// derive from it.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// NameList renders the registered names for help and error text.
func NameList() string {
	return strings.Join(Names(), ", ")
}

// build materializes a registry entry; embedded specs were validated at
// load, so a Build failure here is a programming error.
func (e registryEntry) build(cfg Config) Suite {
	s, err := e.spec.Build(cfg)
	if err != nil {
		panic(fmt.Sprintf("suites: embedded suite %q: %v", e.name, err))
	}
	return s
}

// All returns the six Table-III suites in paper order, built from their
// embedded declarative specs.
func All(cfg Config) []Suite {
	out := make([]Suite, len(stockNames))
	for i := range stockNames {
		out[i] = registry[i].build(cfg)
	}
	return out
}

// Registered returns every registered suite — the stock six plus the
// spec-only families — in listing order.
func Registered(cfg Config) []Suite {
	out := make([]Suite, len(registry))
	for i, e := range registry {
		out[i] = e.build(cfg)
	}
	return out
}

// ByName returns the named registered suite. The error text lists every
// registered name, so it can never drift from the registry contents.
func ByName(name string, cfg Config) (Suite, error) {
	for _, e := range registry {
		if e.name == name {
			return e.build(cfg), nil
		}
	}
	return Suite{}, fmt.Errorf("suites: unknown suite %q (registered: %s)", name, NameList())
}

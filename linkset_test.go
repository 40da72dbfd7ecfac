package caladrius_test

import (
	"go/build"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// offlinePrograms reproduce the paper without serving anything, so they
// must not link the HTTP stack. The programs that serve or call HTTP
// do: the daemon, calctl, the soak driver and the example that drives
// the API.
var offlinePrograms = []string{"cmd/figures", "cmd/heronsim"}

// httpStack are the standard packages an offline program must not
// link: the HTTP client and server, and the TLS stack under them.
var httpStack = []string{"net/http", "crypto/tls"}

// TestOfflineProgramsLinkNoHTTP walks the transitive imports of each
// offline program and fails with the import chain that reaches the
// HTTP stack, e.g. a simulator package importing internal/telemetry
// (which serves /metrics) instead of internal/instrument.
func TestOfflineProgramsLinkNoHTTP(t *testing.T) {
	// The walk must see the stack where it is linked.
	if importChain(t, "cmd/caladrius", httpStack) == nil {
		t.Fatal("the walk finds no HTTP stack under cmd/caladrius, which serves HTTP")
	}
	for _, prog := range offlinePrograms {
		if chain := importChain(t, prog, httpStack); chain != nil {
			t.Errorf("%s links %s: %s", prog, chain[len(chain)-1], strings.Join(chain, " → "))
		}
	}
}

// importChain searches the imports of the module package at rel
// breadth-first, in go/build's sorted import order, and returns the
// shortest chain from rel to one of targets, or nil when none is
// reachable. Module packages are named by their path below the
// repository root, standard ones by their import path.
func importChain(t *testing.T, rel string, targets []string) []string {
	type node struct{ name, dir string }
	parent := map[string]string{rel: ""}
	queue := []node{{rel, rel}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if slices.Contains(targets, n.name) {
			var chain []string
			for p := n.name; p != ""; p = parent[p] {
				chain = append(chain, p)
			}
			slices.Reverse(chain)
			return chain
		}
		bp, err := build.ImportDir(n.dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", n.name, err)
		}
		// A standard import resolves in GOROOT, and a vendored one
		// relative to the standard package that imports it.
		srcDir := ""
		if bp.Goroot {
			srcDir = bp.Dir
		}
		for _, imp := range bp.Imports {
			var next node
			if local, ok := strings.CutPrefix(imp, "caladrius/"); ok {
				next = node{local, filepath.FromSlash(local)}
			} else if imp == "C" {
				continue // cgo's pseudo-package
			} else {
				sp, err := build.Import(imp, srcDir, build.FindOnly)
				if err != nil {
					t.Fatalf("%s imports %s: %v", n.name, imp, err)
				}
				next = node{sp.ImportPath, sp.Dir}
			}
			if _, seen := parent[next.name]; !seen {
				parent[next.name] = n.name
				queue = append(queue, next)
			}
		}
	}
	return nil
}

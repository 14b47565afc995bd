// Command partlint runs the project's analyzer suite (see docs/LINTS.md):
//
//	powtwo       constant size arguments must be powers of two
//	loadmutation PE-load mutation only inside audited allocator packages
//	seedrand     no global math/rand under internal/ and cmd/
//	detorder     no map-range feeding order-sensitive output
//	panicmsg     panic messages follow the "pkg: message" convention
//	hosttopo     topology hosts built and consumed consistently
//	obsbless     observability registries built only through the facade
//	placer       engine shard access only through the placement layer
//	lockorder    no lock copies, missed unlocks, or blocking under a mutex
//	ctxflow      contexts propagate; no re-rooting outside main packages
//	errwrapped   sentinel errors matched with errors.Is and wrapped via %w
//	purealloc    allocator implementations stay deterministic and pure
//	chkpt        allocators are checkpointable; Restore copies its input
//
// The last five are fact-powered: each package's analysis exports facts
// (may-block, creates-root, wraps-sentinels, impure, retains) that later
// analysis of importing packages consumes, so cross-package call chains
// are convicted without whole-program analysis.
//
// Standalone mode analyzes package patterns (default ./...):
//
//	partlint ./...
//	partlint -only powtwo,seedrand ./internal/...
//	partlint -json ./...
//	partlint -list
//
// It also speaks cmd/go's vet-tool protocol, so the same binary plugs
// into the build system's vet harness, with facts carried between
// compilation units in the .vetx files cmd/go caches:
//
//	go build -o /tmp/partlint ./cmd/partlint
//	go vet -vettool=/tmp/partlint ./...
//
// Exit status: 0 clean, 1 usage or internal error, 2 diagnostics found
// (matching go vet's convention).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"strings"

	"partalloc/internal/analysis"
	"partalloc/internal/analysis/checker"
	"partalloc/internal/analysis/load"
	"partalloc/internal/analysis/passes"
)

func main() {
	// cmd/go probes vet tools before use: `-V=full` must print a version
	// line, `-flags` must describe supported flags as JSON, and a single
	// *.cfg argument selects unit-checking mode.
	args := os.Args[1:]
	if len(args) == 1 {
		switch {
		case strings.HasPrefix(args[0], "-V="):
			// cmd/go derives the tool's cache key from the last field, so
			// hash the binary itself: a rebuilt partlint (new or changed
			// analyzers) invalidates previous vet results.
			fmt.Printf("partlint version devel buildID=%s\n", selfHash())
			return
		case args[0] == "-flags":
			fmt.Println("[]")
			return
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(unitcheck(args[0]))
		}
	}

	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as JSON on stdout (one array of {file,line,col,analyzer,message})")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: partlint [-only a,b] [-json] [-list] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range passes.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected, err := selectAnalyzers(*only)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	_, pkgs, err := load.Targets(wd, patterns...)
	if err != nil {
		fatal(err)
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			fatal(fmt.Errorf("%s: %v", pkg.ImportPath, pkg.TypeErrors[0]))
		}
	}
	diags, err := checker.Run(pkgs, selected)
	if err != nil {
		fatal(err)
	}
	if len(pkgs) > 0 {
		if *jsonOut {
			printDiagsJSON(pkgs[0].Fset, diags)
		} else {
			printDiags(pkgs[0].Fset, diags)
		}
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

// jsonDiag is the machine-readable diagnostic shape -json emits; CI turns
// these into GitHub annotations.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printDiagsJSON(fset *token.FileSet, diags []analysis.Diagnostic) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		out = append(out, jsonDiag{
			File:     pos.Filename,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer.Name,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return passes.All(), nil
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		a := passes.ByName(strings.TrimSpace(name))
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func printDiags(fset *token.FileSet, diags []analysis.Diagnostic) {
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", pos, d.Analyzer.Name, d.Message)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "partlint:", err)
	os.Exit(1)
}

// selfHash returns a content hash of the running binary for the vet-tool
// version handshake.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

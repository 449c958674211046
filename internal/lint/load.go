package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A Package is one parsed, type-checked package ready for analysis. File
// positions are recorded relative to the module root, so diagnostics read
// `internal/stats/corr.go:12:3` regardless of where areslint ran from.
type Package struct {
	// Path is the import path (module path + directory).
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// ModPath is the module path of the enclosing module (go.mod).
	ModPath string
	// Fset is the file set shared by every package in the loader.
	Fset *token.FileSet
	// Files are the parsed non-test source files, in filename order.
	// Test files are deliberately excluded: the invariants areslint
	// enforces are production contracts, and tests legitimately use
	// wall-clock deadlines and ad-hoc seeds.
	Files []*ast.File
	// Src holds each file's source bytes keyed by its display name (the
	// module-root-relative path diagnostics use). The fix engine slices
	// these to build byte-offset edits.
	Src map[string][]byte
	// Imports maps module-internal import paths to their loaded packages,
	// so interprocedural analysis can walk the dependency closure without
	// re-resolving through the loader.
	Imports map[string]*Package
	// Types and Info carry the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages from source. Module-internal
// imports resolve against the module tree on disk; everything else (the
// standard library) resolves through go/importer's "source" mode, so no
// compiler export data or external tooling is required. A Loader memoizes
// by import path and is not safe for concurrent use — load first, then
// analyze in parallel.
type Loader struct {
	// Root is the absolute module root directory.
	Root string
	// ModPath is the module path from go.mod.
	ModPath string

	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader creates a loader for the module rooted at root (a directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not support ImporterFrom")
	}
	return newLoader(root, fset, std)
}

// newLoader is NewLoader over a given FileSet and standard-library
// importer. Loaders of different modules may share the pair, used one at
// a time: the importer memoizes every package it type-checks, so the
// standard library is checked from source once for all of them.
func newLoader(root string, fset *token.FileSet, std types.ImporterFrom) (*Loader, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return &Loader{
		Root:    root,
		ModPath: modPath,
		fset:    fset,
		std:     std,
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// Load resolves the given patterns into type-checked packages. A pattern
// is either a directory path (absolute or relative to the module root,
// `./`-prefixed or not) or a `dir/...` wildcard that walks the subtree.
// The walk skips testdata, vendor and hidden directories — fixture
// packages under testdata load only when named explicitly — and a
// directory with no non-test Go files is skipped (wildcard) or an error
// (explicit).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := resolveDirs(l, patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.loadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// resolveDirs expands patterns into package directories, sorted and
// deduplicated, without loading anything.
func resolveDirs(l *Loader, patterns []string) ([]string, error) {
	var dirs []string
	seen := make(map[string]bool)
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "..."); ok {
			base := l.absDir(strings.TrimSuffix(rest, string(filepath.Separator)))
			err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
					name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := l.absDir(pat)
		if !hasGoFiles(dir) {
			return nil, fmt.Errorf("lint: no non-test Go files in %s", pat)
		}
		add(dir)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// absDir normalizes a pattern directory against the module root.
func (l *Loader) absDir(p string) string {
	p = strings.TrimSuffix(p, "/")
	if p == "" || p == "." || p == "./" {
		return l.Root
	}
	p = strings.TrimPrefix(p, "./")
	if filepath.IsAbs(p) {
		return filepath.Clean(p)
	}
	return filepath.Join(l.Root, filepath.FromSlash(p))
}

// importPathFor maps a directory under the module root to its import
// path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.Root)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// hasGoFiles reports whether dir contains at least one non-test .go file.
func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true
		}
	}
	return false
}

// isSourceFile selects the non-test Go files a package is built from.
func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") && !strings.HasPrefix(name, "_")
}

// loadDir parses and type-checks one directory, memoized by import path.
func (l *Loader) loadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && isSourceFile(e.Name()) {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	sort.Strings(names)

	files := make([]*ast.File, 0, len(names))
	srcs := make(map[string][]byte, len(names))
	for _, name := range names {
		full := filepath.Join(dir, name)
		display := full
		if rel, err := filepath.Rel(l.Root, full); err == nil && !strings.HasPrefix(rel, "..") {
			display = filepath.ToSlash(rel)
		}
		src, err := os.ReadFile(full)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, display, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		srcs[display] = src
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}

	pkg := &Package{
		Path: path, Dir: dir, ModPath: l.ModPath, Fset: l.fset,
		Files: files, Src: srcs, Types: tpkg, Info: info,
		Imports: make(map[string]*Package),
	}
	// Link module-internal imports to their loaded packages. Type-checking
	// above already forced them through ImportFrom, so every one is
	// memoized in l.pkgs.
	for _, f := range files {
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if ip == l.ModPath || strings.HasPrefix(ip, l.ModPath+"/") {
				if dep, ok := l.pkgs[ip]; ok {
					pkg.Imports[ip] = dep
				}
			}
		}
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// from the module tree, everything else falls through to the stdlib
// source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
		pkg, err := l.loadDir(filepath.Join(l.Root, filepath.FromSlash(rel)), path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

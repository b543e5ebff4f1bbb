// Package driver loads and type-checks packages for the slugvet
// analyzers without golang.org/x/tools: package metadata comes from
// `go list -deps -export -json` (which also populates the build cache
// with export data), syntax from go/parser, and dependency types from
// the standard library's gc export-data importer. This trades x/tools'
// generality for a zero-dependency loader that works offline.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Config controls package loading.
type Config struct {
	// Dir is the working directory for go list (module root or any
	// directory inside the module). Empty means the process cwd.
	Dir string
}

// Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
	// TypeErrors collects type-checking problems. Analyzers still run
	// on partially-checked packages; callers decide whether to fail.
	TypeErrors []error
}

// Finding is one diagnostic after suppression filtering, with position
// resolved for printing.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// listPkg is the subset of `go list -json` output the driver consumes.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	ImportMap  map[string]string
	Error      *listError
}

type listError struct {
	Pos string
	Err string
}

// Load lists patterns (go package patterns, relative to cfg.Dir),
// parses each matched package's sources, and type-checks them against
// gc export data for every dependency.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-export", "-e", "-json=ImportPath,Name,Dir,Export,GoFiles,DepOnly,Standard,ImportMap,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	var out, errbuf bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errbuf
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("driver: go list: %v\n%s", err, errbuf.String())
	}

	exports := make(map[string]string)
	var roots []*listPkg
	dec := json.NewDecoder(&out)
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("driver: decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			q := p
			roots = append(roots, &q)
		}
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, r := range roots {
		if r.Error != nil {
			return nil, fmt.Errorf("driver: %s: %s", r.ImportPath, r.Error.Err)
		}
		p, err := check(fset, r, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func check(fset *token.FileSet, r *listPkg, exports map[string]string) (*Package, error) {
	var files []*ast.File
	for _, name := range r.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(r.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("driver: %s: %v", r.ImportPath, err)
		}
		files = append(files, f)
	}

	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := r.ImportMap[path]; ok {
			path = mapped
		}
		exp, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (dependency of %s)", path, r.ImportPath)
		}
		return os.Open(exp)
	}

	pkg := &Package{ImportPath: r.ImportPath, Dir: r.Dir, Fset: fset, Syntax: files}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	tpkg, _ := conf.Check(r.ImportPath, fset, files, info) // errors collected via conf.Error
	pkg.Types = tpkg
	pkg.TypesInfo = info
	return pkg, nil
}

// Run applies every analyzer to every package, filters findings through
// //slugvet:ok suppression comments, and returns them sorted by
// position. Analyzer errors abort the run.
func Run(pkgs []*Package, analyzers []*analysis.Analyzer) ([]Finding, error) {
	var findings []Finding
	for _, p := range pkgs {
		supp := suppressions(p)
		for _, a := range analyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      p.Fset,
				Files:     p.Syntax,
				Pkg:       p.Types,
				TypesInfo: p.TypesInfo,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				pos := p.Fset.Position(d.Pos)
				if supp[suppKey{pos.Filename, pos.Line, name}] {
					return
				}
				findings = append(findings, Finding{Analyzer: name, Pos: pos, Message: d.Message})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("driver: analyzer %s on %s: %v", a.Name, p.ImportPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

type suppKey struct {
	file     string
	line     int
	analyzer string
}

// suppressions collects "//slugvet:ok name[,name...] [reason]"
// comments. A suppression covers its own line and the following line,
// so it works both trailing a statement and on the line above one.
func suppressions(p *Package) map[suppKey]bool {
	supp := make(map[suppKey]bool)
	for _, f := range p.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//slugvet:ok ")
				if !ok {
					continue
				}
				names, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
				pos := p.Fset.Position(c.Pos())
				for _, name := range strings.Split(names, ",") {
					supp[suppKey{pos.Filename, pos.Line, name}] = true
					supp[suppKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return supp
}

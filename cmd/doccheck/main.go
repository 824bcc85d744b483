// Command doccheck is the repository's documentation gate: it fails when a
// scanned package lacks a package comment or exports an identifier without
// a doc comment.  It is a vendored-free, go/ast-based stand-in for the
// "exported" rules of golint/revive, run by `make doc-check` (and CI) over
// every package of the module.
//
// Usage:
//
//	doccheck [-q] DIR...
//
// Rules per scanned package:
//
//   - some file must carry a package comment ("// Package foo ...");
//   - every exported function and method needs a doc comment;
//   - every exported type needs a doc comment on its spec, or on the
//     declaration when it declares that type alone;
//   - exported consts and vars need a doc comment on their spec or on the
//     enclosing block (one comment may document a const/var block).
//
// Findings are printed as file:line: identifier diagnostics; the exit code
// is 1 when any finding exists, so the check can gate CI.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strings"
)

func main() {
	quiet := flag.Bool("q", false, "suppress the per-package summary, print findings only")
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: doccheck [-q] DIR...")
		os.Exit(2)
	}
	total := 0
	for _, dir := range dirs {
		findings, err := checkDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, f := range findings {
			fmt.Println(f)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %d finding(s)\n", dir, len(findings))
		}
		total += len(findings)
	}
	if total > 0 {
		os.Exit(1)
	}
}

// checkDir parses the non-test Go files of dir and returns one diagnostic
// per rule violation, sorted by position.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var findings []string
	for name, pkg := range pkgs {
		if strings.HasSuffix(name, "_test") {
			continue
		}
		findings = append(findings, checkPackage(fset, dir, pkg)...)
	}
	sort.Strings(findings)
	return findings, nil
}

// checkPackage applies the documentation rules to one parsed package.
func checkPackage(fset *token.FileSet, dir string, pkg *ast.Package) []string {
	var findings []string
	hasPkgDoc := false
	for _, file := range pkg.Files {
		if file.Doc != nil {
			hasPkgDoc = true
		}
		findings = append(findings, checkFile(fset, file)...)
	}
	if !hasPkgDoc {
		findings = append(findings, fmt.Sprintf("%s: package %s has no package comment", dir, pkg.Name))
	}
	return findings
}

// checkFile reports the file's exported declarations that lack docs.
func checkFile(fset *token.FileSet, file *ast.File) []string {
	var findings []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		findings = append(findings, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && d.Doc == nil {
				kind := "function"
				if d.Recv != nil {
					kind = "method"
				}
				report(d.Pos(), kind, d.Name.Name)
			}
		case *ast.GenDecl:
			switch d.Tok {
			case token.TYPE:
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					if !ts.Name.IsExported() {
						continue
					}
					// The declaration comment covers a type it declares
					// alone; specs in a grouped block document themselves.
					if ts.Doc == nil && !(len(d.Specs) == 1 && d.Doc != nil) {
						report(ts.Pos(), "type", ts.Name.Name)
					}
				}
			case token.CONST, token.VAR:
				kind := "const"
				if d.Tok == token.VAR {
					kind = "var"
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					for _, n := range vs.Names {
						if n.IsExported() && vs.Doc == nil && d.Doc == nil {
							report(n.Pos(), kind, n.Name)
						}
					}
				}
			}
		}
	}
	return findings
}

// Package annot parses the //ccubing:* source annotations shared by the
// cclint analyzers:
//
//	//ccubing:hotpath              function doc: steady-state allocation-free path
//	//ccubing:allow <reason>       same line or line above a finding: suppress it
//	//ccubing:freeze               struct doc: fields frozen outside mutator files
//	//ccubing:mutates Type         file-scope: this file may mutate frozen Type
package annot

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefix is the annotation namespace.
const Prefix = "//ccubing:"

// Directive returns the arguments of every "//ccubing:<name> args" line in
// the comment group (nil-safe).
func Directive(cg *ast.CommentGroup, name string) []string {
	if cg == nil {
		return nil
	}
	var out []string
	marker := Prefix + name
	for _, c := range cg.List {
		text := strings.TrimSpace(c.Text)
		if text == marker {
			out = append(out, "")
			continue
		}
		if rest, ok := strings.CutPrefix(text, marker+" "); ok {
			out = append(out, strings.TrimSpace(rest))
		}
	}
	return out
}

// Has reports whether the comment group carries the named directive.
func Has(cg *ast.CommentGroup, name string) bool {
	return len(Directive(cg, name)) > 0
}

// Allows indexes every //ccubing:allow comment of a package by file and
// line. A finding is suppressed when an allow sits on the finding's line
// (trailing comment) or on the line directly above.
type Allows struct {
	reasons map[string]map[int]string // filename -> line -> reason
	bad     []token.Pos               // allows with an empty reason
}

// CollectAllows scans every comment of files.
func CollectAllows(fset *token.FileSet, files []*ast.File) *Allows {
	a := &Allows{reasons: make(map[string]map[int]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				rest, ok := strings.CutPrefix(text, Prefix+"allow")
				if !ok {
					continue
				}
				if rest != "" && !strings.HasPrefix(rest, " ") {
					continue // a different directive sharing the prefix
				}
				reason := strings.TrimSpace(rest)
				pos := fset.Position(c.Pos())
				if reason == "" {
					a.bad = append(a.bad, c.Pos())
					continue
				}
				lines := a.reasons[pos.Filename]
				if lines == nil {
					lines = make(map[int]string)
					a.reasons[pos.Filename] = lines
				}
				lines[pos.Line] = reason
			}
		}
	}
	return a
}

// Allowed reports whether a finding at pos is suppressed, and by which
// reason.
func (a *Allows) Allowed(fset *token.FileSet, pos token.Pos) (string, bool) {
	p := fset.Position(pos)
	lines := a.reasons[p.Filename]
	if lines == nil {
		return "", false
	}
	if r, ok := lines[p.Line]; ok {
		return r, true
	}
	if r, ok := lines[p.Line-1]; ok {
		return r, true
	}
	return "", false
}

// Bad returns the positions of allow annotations missing a reason; every
// analyzer reports them (the driver deduplicates identical diagnostics).
func (a *Allows) Bad() []token.Pos { return a.bad }

// NonTest filters out _test.go files: the concurrency and hot-path
// invariants the analyzers enforce are production-path contracts, and test
// helpers legitimately reach into unexported state single-threaded.
func NonTest(fset *token.FileSet, files []*ast.File) []*ast.File {
	out := files[:0:0]
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// SplitNames splits a directive argument list: "a, b and c" -> a b c.
func SplitNames(args string) []string {
	fields := strings.FieldsFunc(args, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	})
	out := fields[:0]
	for _, f := range fields {
		if f == "and" || f == "" {
			continue
		}
		out = append(out, f)
	}
	return out
}

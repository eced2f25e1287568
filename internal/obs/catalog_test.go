package obs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// catalog collects the string value of every Metric* and Event* constant
// declared in this package's non-test files.
func catalog(t *testing.T) (metrics, events []string) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range pkgs["obs"].Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					v, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					switch {
					case strings.HasPrefix(name.Name, "Metric"):
						metrics = append(metrics, v)
					case strings.HasPrefix(name.Name, "Event"):
						events = append(events, v)
					}
				}
			}
		}
	}
	return metrics, events
}

// TestCatalogDocumented checks README's Observability section against the
// declared catalog: every metric has its own row in the metric table and
// every event type is named in the events paragraph.
func TestCatalogDocumented(t *testing.T) {
	metrics, events := catalog(t)
	if len(metrics) == 0 || len(events) == 0 {
		t.Fatalf("catalog found %d metrics and %d events", len(metrics), len(events))
	}
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(raw), "\n## Observability\n")
	if !ok {
		t.Fatal("README has no Observability section")
	}
	rows := map[string]bool{}
	var paragraph string
	for _, block := range strings.Split(section, "\n\n") {
		if strings.HasPrefix(block, "#") {
			break // the next heading ends the section's table and paragraph
		}
		if strings.HasPrefix(block, "Structured events") {
			paragraph = block
		}
		for _, line := range strings.Split(block, "\n") {
			if cell, ok := strings.CutPrefix(line, "| `"); ok {
				name, _, _ := strings.Cut(cell, "`")
				rows[name] = true
			}
		}
	}
	for _, m := range metrics {
		if !rows[m] {
			t.Errorf("metric %s has no row in README's metric table", m)
		}
	}
	if paragraph == "" {
		t.Fatal("README's Observability section has no events paragraph")
	}
	for _, e := range events {
		if !strings.Contains(paragraph, "`"+e+"`") {
			t.Errorf("event %s is not named in README's events paragraph", e)
		}
	}
}

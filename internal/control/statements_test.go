package control

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// corpus reads the spec texts under testdata/specs, keyed by file name.
func corpus(t testing.TB) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "specs", "*.spec"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no spec corpus: %v", err)
	}
	out := make(map[string]string, len(files))
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[f] = string(src)
	}
	return out
}

// TestSpecCorpusGolden pins the text and JSON language: every corpus
// spec parses to the canonical JSON in its .golden file, or is rejected
// where the file reads "error".
func TestSpecCorpusGolden(t *testing.T) {
	for f, src := range corpus(t) {
		want, err := os.ReadFile(strings.TrimSuffix(f, ".spec") + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		got := []byte("error\n")
		if d, err := ParseDeployment(src); err == nil {
			if got, err = d.Marshal(); err != nil {
				t.Fatalf("%s: %v", f, err)
			}
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: got\n%s\nwant\n%s", f, got, want)
		}
	}
}

// FuzzParseDeployment: the parser never panics, and an accepted spec
// reaches a fixed point through its canonical JSON form. Two accepted
// inputs have no JSON form to reach, and are known gaps rather than
// failures: text that is not valid UTF-8 (JSON encoding substitutes
// U+FFFD) and non-finite numbers such as `bypass-below NaN` (JSON has
// no encoding for them).
func FuzzParseDeployment(f *testing.F) {
	for _, src := range corpus(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d1, err := ParseDeployment(src)
		if err != nil || !utf8.ValidString(src) {
			return
		}
		m1, err := d1.Marshal()
		var nonFinite *json.UnsupportedValueError
		if errors.As(err, &nonFinite) {
			return
		}
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		d2, err := ParseDeployment(string(m1))
		if err != nil {
			t.Fatalf("canonical JSON rejected: %v\n%s", err, m1)
		}
		m2, err := d2.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("canonical JSON is not a fixed point:\n%s\nvs\n%s", m1, m2)
		}
		for i := range d1.Pipelines {
			if !specEqual(d1.Pipelines[i], d2.Pipelines[i]) {
				t.Fatalf("pipeline %q changed across its canonical JSON", d1.Pipelines[i].Name)
			}
		}
	})
}

// specSection returns the lines of SPEC.md's section headed heading.
func specSection(t *testing.T, heading string) []string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "SPEC.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(doc), "\n## "+heading+"\n")
	if !ok {
		t.Fatalf("SPEC.md has no %q section", heading)
	}
	rest, _, _ = strings.Cut(rest, "\n## ")
	return strings.Split(rest, "\n")
}

// TestStatementsMatchSpecDoc holds SPEC.md to the statements table: the
// "Text grammar" block lists exactly the table's keywords (plus the
// top-level pipeline/route/tenant), and the "Hot-swap semantics"
// bullets name exactly the table's hot and rebuild classes.
func TestStatementsMatchSpecDoc(t *testing.T) {
	var keywords []string
	for _, s := range statements {
		keywords = append(keywords, s.keyword)
	}
	slices.Sort(keywords)

	// Grammar: a statement line is indented by 0 (top level) or 2
	// (pipeline block); deeper lines continue a description.
	var grammar []string
	inBlock := false
	for _, line := range specSection(t, "Text grammar") {
		if strings.HasPrefix(line, "```") {
			if inBlock {
				break
			}
			inBlock = true
			continue
		}
		trimmed := strings.TrimLeft(line, " ")
		if !inBlock || trimmed == "" || len(line)-len(trimmed) > 2 {
			continue
		}
		words := strings.Fields(trimmed)
		kw, _, _ := strings.Cut(words[0], "(")
		if kw == "adapt" {
			sub, _, _ := strings.Cut(words[1], "(")
			kw += " " + sub
		}
		if len(line) == len(trimmed) {
			if !slices.Contains([]string{"pipeline", "route", "tenant"}, kw) {
				t.Errorf("grammar lists top-level statement %q the parser does not handle", kw)
			}
			continue
		}
		if !slices.Contains(grammar, kw) {
			grammar = append(grammar, kw)
		}
	}
	slices.Sort(grammar)
	if !slices.Equal(grammar, keywords) {
		t.Errorf("SPEC.md grammar keywords %q\n!= statements table %q", grammar, keywords)
	}

	// Hot-swap bullets: a backticked token names the table rows whose
	// keyword it is or prefixes (`adapt` covers every adapt setting).
	bullets := map[string]string{}
	var cur string
	for _, line := range specSection(t, "Hot-swap semantics") {
		switch {
		case strings.HasPrefix(line, "- **Hot-swappable"):
			cur = "hot"
		case strings.HasPrefix(line, "- **Not hot-swappable"):
			cur = "rebuild"
		case strings.HasPrefix(line, "- ") || line == "":
			cur = ""
		}
		if cur != "" {
			bullets[cur] += line + "\n"
		}
	}
	tick := regexp.MustCompile("`([^`]+)`")
	for class, text := range bullets {
		var named []string
		for _, m := range tick.FindAllStringSubmatch(text, -1) {
			for _, s := range statements {
				if s.keyword == m[1] || strings.HasPrefix(s.keyword, m[1]+" ") {
					named = append(named, s.keyword)
				}
			}
		}
		var want []string
		for _, s := range statements {
			if (class == "hot" && s.hot != nil) || (class == "rebuild" && s.rebuild != nil) {
				want = append(want, s.keyword)
			}
		}
		slices.Sort(named)
		named = slices.Compact(named)
		slices.Sort(want)
		if !slices.Equal(named, want) {
			t.Errorf("SPEC.md %s bullet names %q\n!= the table's %s class %q", class, named, class, want)
		}
	}
	if len(bullets) != 2 {
		t.Errorf("found %d hot-swap bullets, want the hot and rebuild ones", len(bullets))
	}
}

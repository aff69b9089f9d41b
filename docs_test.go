package flexcast_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches markdown links and images: [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsIntraRepoLinks fails on broken intra-repository links in the
// top-level documentation — the docs CI job's gate. External links
// (with a scheme) and pure anchors are skipped; relative targets must
// exist on disk.
func TestDocsIntraRepoLinks(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"} {
		buf, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(buf), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Clean(target)); err != nil {
				t.Errorf("%s: broken intra-repo link %q: %v", doc, m[1], err)
			}
		}
	}
}

// TestDocsNamedFilesExist keeps the documentation's file references
// honest: every path-like token the top-level docs name in backticks
// must exist (packages, commands, files). Directories count.
func TestDocsNamedFilesExist(t *testing.T) {
	pathToken := regexp.MustCompile("`((?:cmd|internal|examples|amcast)/[A-Za-z0-9_/.-]+)`")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		buf, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range pathToken.FindAllStringSubmatch(string(buf), -1) {
			target := filepath.Clean(m[1])
			if _, err := os.Stat(target); err == nil {
				continue
			}
			// `internal/metrics.Histogram`-style package.Symbol
			// references: the package directory must exist.
			if i := strings.LastIndexByte(target, '.'); i > strings.LastIndexByte(target, '/') {
				if _, err := os.Stat(target[:i]); err == nil {
					continue
				}
			}
			t.Errorf("%s: names %q which does not exist", doc, m[1])
		}
	}
}

// TestDocsOpenIssuesAreOnRoadmap keeps "known open issue" statements
// from outliving their issue: ROADMAP.md is where open items live, so a
// paragraph of the other top-level docs that declares one must name, in
// backticks, a repro, test or symbol that ROADMAP.md names too. A closed
// issue leaves the roadmap, and this then fails until the stale
// paragraph is deleted as well.
func TestDocsOpenIssuesAreOnRoadmap(t *testing.T) {
	backticked := regexp.MustCompile("`([^`]+)`")
	spaces := regexp.MustCompile(`\s+`)
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	carried := spaces.ReplaceAllString(string(roadmap), " ")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		buf, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		// Paragraphs end at a blank line or at the next list item.
		text := strings.ReplaceAll(string(buf), "\n- ", "\n\n- ")
		for _, para := range strings.Split(text, "\n\n") {
			if !strings.Contains(strings.ToLower(para), "known open issue") {
				continue
			}
			para = spaces.ReplaceAllString(para, " ")
			onRoadmap := false
			for _, m := range backticked.FindAllStringSubmatch(para, -1) {
				onRoadmap = onRoadmap || strings.Contains(carried, "`"+m[1]+"`")
			}
			if !onRoadmap {
				t.Errorf("%s declares a known open issue that ROADMAP.md does not carry (no backticked repro, test or symbol in common); delete it or put the issue on the roadmap:\n%.200s…", doc, para)
			}
		}
	}
}

// TestDocsCommandFlagsExist keeps documented command lines runnable:
// every -flag on a `go run ./cmd/<name> …` line (shell continuations
// included) of the top-level docs, the CI workflow and the verify skill
// must be a flag that command's -h lists.
func TestDocsCommandFlagsExist(t *testing.T) {
	cmdLine := regexp.MustCompile(`go run \./cmd/([a-z]+)((?:\\\n|[^\n])*)`)
	quoted := regexp.MustCompile(`'[^']*'|"[^"]*"`)
	flagTok := regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	helpFlag := regexp.MustCompile(`(?m)^\s+-([a-z][a-z0-9-]*)`)
	defined := map[string]map[string]bool{}
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		buf, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		for _, m := range cmdLine.FindAllStringSubmatch(string(buf), -1) {
			name, args := m[1], quoted.ReplaceAllString(strings.ReplaceAll(m[2], "\\\n", " "), "")
			// The command's own arguments end at a comment or at the
			// next shell operator.
			if i := strings.IndexAny(args, "#|;&>`"); i >= 0 {
				args = args[:i]
			}
			if defined[name] == nil {
				// -h exits non-zero after printing the flag set.
				out, _ := exec.Command("go", "run", "./cmd/"+name, "-h").CombinedOutput()
				defined[name] = map[string]bool{}
				for _, f := range helpFlag.FindAllStringSubmatch(string(out), -1) {
					defined[name][f[1]] = true
				}
				if len(defined[name]) == 0 {
					t.Fatalf("cmd/%s -h listed no flags:\n%s", name, out)
				}
			}
			for _, f := range flagTok.FindAllStringSubmatch(args, -1) {
				if !defined[name][f[1]] {
					t.Errorf("%s: `go run ./cmd/%s … -%s`: %s has no such flag", doc, name, f[1], name)
				}
			}
		}
	}
}

// TestDocsPaperExperimentsMatchSpec keeps EXPERIMENTS.md and
// experiments.json naming the same paper-* experiments.
func TestDocsPaperExperimentsMatchSpec(t *testing.T) {
	data, err := os.ReadFile("experiments.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Experiments []struct{ Name string }
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	inSpec, inDoc := map[string]bool{}, map[string]bool{}
	for _, e := range spec.Experiments {
		if strings.HasPrefix(e.Name, "paper-") {
			inSpec[e.Name] = true
		}
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile("`(paper-[a-z0-9-]+)`").FindAllStringSubmatch(string(doc), -1) {
		inDoc[m[1]] = true
	}
	if !reflect.DeepEqual(inDoc, inSpec) {
		t.Errorf("EXPERIMENTS.md names the paper experiments %v, experiments.json has %v", inDoc, inSpec)
	}
}

package rcnvm

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameExistingPaths: every back-quoted repository path in the
// documents below must exist on disk, so deleting or renaming a file fails
// here until the prose that names it is fixed. A `dir.Symbol` token names a
// symbol of the package in dir; glob and placeholder tokens are skipped.
func TestDocsNameExistingPaths(t *testing.T) {
	token := regexp.MustCompile("`((?:results|scripts|cmd|internal|examples|bench)/[^`\n]*)`")
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range token.FindAllSubmatch(text, -1) {
			// First word only: `cmd/rcnvm-sim -record` names cmd/rcnvm-sim.
			path := strings.TrimRight(strings.Fields(string(m[1]))[0], ".,;:)")
			if strings.ContainsAny(path, "*<…") {
				continue
			}
			if _, err := os.Stat(path); err == nil {
				continue
			}
			dir, _, _ := strings.Cut(path, ".")
			if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
				continue
			}
			t.Errorf("%s names `%s`, which does not exist", doc, path)
		}
	}
}

package checkers

import (
	"testing"

	"repro/internal/analysis/driver"
)

// TestRepoPassesSlugvet runs the whole suite over every package of the
// module, as `slugvet ./...` does from the module root: a type error or
// an unsuppressed finding anywhere fails the test, naming its line.
func TestRepoPassesSlugvet(t *testing.T) {
	pkgs, err := driver.Load(driver.Config{Dir: "../../.."}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			t.Errorf("%s: %v", p.ImportPath, terr)
		}
	}
	findings, err := driver.Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

package collsym_test

import (
	"testing"

	"mdkmc/internal/analysis/analysistest"
	"mdkmc/internal/analysis/collsym"
)

func TestCollsym(t *testing.T) {
	analysistest.Run(t, collsym.Analyzer, "a", "mdkmc/internal/couple")
}

// Machine-readable output: -format sarif is a minimal SARIF 2.1.0
// document for code scanning UIs (CI uploads it as the lint artifact).
package main

import (
	"encoding/json"
	"os"

	"tagprefetch/internal/analysis"
)

// Minimal SARIF 2.1.0 structures — only what code-scanning consumers
// require.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

func printSARIF(out *os.File, selected []*analysis.Analyzer, diags []analysis.Diagnostic) error {
	rules := make([]sarifRule, 0, len(selected)+1)
	for _, a := range selected {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	rules = append(rules,
		sarifRule{ID: suppressCheck, ShortDescription: sarifText{Text: "stale //lint:ignore suppression comments"}})
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		line := d.Pos.Line
		if line < 1 {
			line = 1
		}
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: d.Pos.Filename, URIBaseID: "%SRCROOT%"},
					Region:           sarifRegion{StartLine: line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "tcplint", Rules: rules}}, Results: results}},
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(&log)
}

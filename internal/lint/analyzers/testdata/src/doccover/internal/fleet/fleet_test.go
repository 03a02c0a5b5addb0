package fleet

// Test files never reach the analyzer, so this tag demands nothing.
type testOnly struct {
	X int `json:"test_only_field"`
}

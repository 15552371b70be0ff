package serve

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/bookshelf"
	"repro/internal/core"
)

// writeSpecFile persists the submitted spec beside the job's artifacts, so a
// result directory is self-describing without the journal.
func writeSpecFile(path string, spec *JobSpec) error {
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: marshal spec: %w", err)
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("serve: write spec: %w", err)
	}
	return nil
}

// writePlacementFile writes the legal placement in Bookshelf .pl format.
func writePlacementFile(path string, d *bookshelf.Design, res *core.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("serve: placement file: %w", err)
	}
	if err := bookshelf.WritePl(f, d.Netlist, res.Placement); err != nil {
		f.Close()
		return fmt.Errorf("serve: write placement: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("serve: close placement: %w", err)
	}
	return nil
}

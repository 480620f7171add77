package hostmodel

import "fmt"

// Names lists the catalogued host models.
func Names() []string {
	return []string{"xsede-vm", "titan-login", "null"}
}

// Validate reports whether the model is self-consistent.
func (m *Model) Validate() error {
	if m.MsgCost < 0 || m.SpawnCost < 0 || m.TeardownCost < 0 ||
		m.ValidationCost < 0 || m.MgmtBase < 0 {
		return fmt.Errorf("hostmodel: negative cost")
	}
	if m.StrainFactor < 0 {
		return fmt.Errorf("hostmodel: negative strain factor")
	}
	return nil
}

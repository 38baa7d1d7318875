package refresh

import "ccubing/internal/core"

// The verb × form entry points Manager had before Apply, kept — here, for
// tests only — so the suites written against them run as written. Each is one
// Apply.

func (m *Manager) Append(rows [][]core.Value, aux []float64) (int, bool, error) {
	return m.Apply(Batch{Values: rows, Aux: aux})
}

func (m *Manager) AppendLabeled(rows [][]string, aux []float64) (int, bool, error) {
	return m.Apply(Batch{Rows: rows, Aux: aux})
}

func (m *Manager) Delete(rows [][]core.Value, aux []float64) (int, bool, error) {
	return m.Apply(Batch{Values: rows, Aux: aux}.Of(OpDelete))
}

func (m *Manager) DeleteLabeled(rows [][]string, aux []float64) (int, bool, error) {
	return m.Apply(Batch{Rows: rows, Aux: aux}.Of(OpDelete))
}

func (m *Manager) Update(oldRows, newRows [][]core.Value, oldAux, newAux []float64) (int, bool, error) {
	b, err := Updates(nil, nil, oldRows, newRows, oldAux, newAux)
	if err != nil {
		return 0, false, err
	}
	return m.Apply(b)
}

func (m *Manager) UpdateLabeled(oldRows, newRows [][]string, oldAux, newAux []float64) (int, bool, error) {
	b, err := Updates(oldRows, newRows, nil, nil, oldAux, newAux)
	if err != nil {
		return 0, false, err
	}
	return m.Apply(b)
}

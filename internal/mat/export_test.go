package mat

// SelectRows returns a new matrix with the given rows, in order.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	out := New(len(idx), m.cols)
	for k, i := range idx {
		copy(out.RowView(k), m.RowView(i))
	}
	return out
}

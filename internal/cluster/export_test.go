package cluster

// NumPoints returns the number of original points in the dendrogram.
func (dg *Dendrogram) NumPoints() int { return dg.n }

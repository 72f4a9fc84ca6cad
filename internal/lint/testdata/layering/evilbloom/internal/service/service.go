// Package service is the fixture twin of the real service layer: just
// enough surface for the layering analyzer to resolve the forbidden
// methods by type.
package service

type Registry struct{}

func (r *Registry) Get(name string) *Filter { return &Filter{} }

type Filter struct{}

func (f *Filter) Store() *Store { return &Store{} }

type Store struct{}

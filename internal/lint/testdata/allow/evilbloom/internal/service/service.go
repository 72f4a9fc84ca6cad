// Package service is the minimal stub for the allow-scoping fixture.
package service

type Registry struct{}

func (r *Registry) Get(name string) *Filter { return &Filter{} }

type Filter struct{}

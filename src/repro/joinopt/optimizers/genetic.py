"""Genetic algorithm over join sequences (Bennett/Steinbrunn style).

Permutation-encoded individuals, order-preserving crossover, swap
mutation, tournament selection — the remaining classic from the
randomized join-ordering literature, rounding out the heuristic zoo
whose limits Theorem 9 establishes.

Fitness comparisons happen on log2 of the cost, so the algorithm is
stable on the hardness instances' astronomically scaled costs.

Elitism and crossover bring the same sequences back generation after
generation, so a call with no active cost cache memoizes its own
sequence costs (:func:`~repro.runtime.costcache.memoize_call`).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.joinopt.instance import QONInstance
from repro.core.results import PlanResult
from repro.joinopt.optimizers.local_search import _random_connected_sequence
from repro.perf.incremental import PrefixEvaluator
from repro.runtime.costcache import memoize_call
from repro.utils.lognum import log2_of
from repro.utils.rng import Random, RngLike, make_rng
from repro.utils.validation import require
from repro.observability.tracer import traced


def _order_crossover(
    parent_a: Tuple[int, ...], parent_b: Tuple[int, ...], rng: Random
) -> Tuple[int, ...]:
    """OX1: copy a slice of A, fill the rest in B's relative order."""
    n = len(parent_a)
    start = rng.randrange(n)
    end = rng.randrange(start + 1, n + 1)
    slice_values = set(parent_a[start:end])
    child: List[Optional[int]] = [None] * n
    child[start:end] = parent_a[start:end]
    fill = [gene for gene in parent_b if gene not in slice_values]
    cursor = 0
    for index in range(n):
        if child[index] is None:
            child[index] = fill[cursor]
            cursor += 1
    return tuple(child)  # type: ignore[arg-type]


def _swap_mutation(
    sequence: Tuple[int, ...], rng: Random
) -> Tuple[int, ...]:
    n = len(sequence)
    i, j = rng.randrange(n), rng.randrange(n)
    mutated = list(sequence)
    mutated[i], mutated[j] = mutated[j], mutated[i]
    return tuple(mutated)


@traced("optimize.genetic")
@memoize_call
def genetic_algorithm(
    instance: QONInstance,
    population_size: int = 32,
    generations: int = 40,
    mutation_rate: float = 0.25,
    tournament: int = 3,
    rng: RngLike = None,
) -> PlanResult:
    """Evolve a population of join sequences; returns the best found."""
    n = instance.num_relations
    require(n >= 1, "instance must have at least one relation")
    require(population_size >= 2, "population must have at least 2 members")
    if n == 1:
        return PlanResult(cost=0, sequence=(0,), optimizer="genetic", explored=1)
    generator = make_rng(rng)
    evaluator = PrefixEvaluator(instance)

    def evaluate(sequence: Tuple[int, ...]) -> object:
        if evaluator.base is None:
            return evaluator.rebase(sequence)
        return evaluator.evaluate(sequence)

    def fitness(sequence: Tuple[int, ...]) -> float:
        return log2_of(evaluate(sequence))

    population = [
        _random_connected_sequence(instance, generator)
        for _ in range(population_size)
    ]
    scores = [fitness(member) for member in population]
    explored = population_size
    best_index = min(range(population_size), key=lambda i: scores[i])
    best_sequence = population[best_index]
    best_score = scores[best_index]

    for _ in range(generations):
        next_population: List[Tuple[int, ...]] = [best_sequence]  # elitism
        while len(next_population) < population_size:
            contenders = [
                generator.randrange(population_size) for _ in range(tournament)
            ]
            parent_a = population[min(contenders, key=lambda i: scores[i])]
            contenders = [
                generator.randrange(population_size) for _ in range(tournament)
            ]
            parent_b = population[min(contenders, key=lambda i: scores[i])]
            child = _order_crossover(parent_a, parent_b, generator)
            if generator.random() < mutation_rate:
                child = _swap_mutation(child, generator)
            next_population.append(child)
        population = next_population
        scores = [fitness(member) for member in population]
        explored += population_size
        generation_best = min(range(population_size), key=lambda i: scores[i])
        if scores[generation_best] < best_score:
            best_score = scores[generation_best]
            best_sequence = population[generation_best]

    return PlanResult(
        cost=evaluate(best_sequence),
        sequence=best_sequence,
        optimizer="genetic",
        explored=explored,
    )

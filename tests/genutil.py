"""Random generators shared by the property and acceptance tests."""

import random
from pathlib import Path

from statetrack.abstraction import ArgRef, PassiveLocationFact
from statetrack.corpus import Action, Entity, StepAction
from statetrack.reasoning import EntityTimeline
from statetrack.rules import LocalDecision

LOCATIONS = ["pond", "lake", "soil", "mud", "air", None]


def write_paragraphs_tsv(path: Path, procedures: list[dict]) -> None:
    """The ``paragraphs.tsv`` of a propara-tsv corpus: one ``id TAB index
    TAB text`` line per step of each corpus-JSON procedure, in list order."""
    path.write_text("".join(
        f"{p['id']}\t{s['index']}\t{s['text']}\n" for p in procedures for s in p["steps"]
    ))


def random_timeline(
    rng: random.Random, max_steps: int = 10, locations: list = LOCATIONS
) -> EntityTimeline:
    """A random timeline; ``locations`` is the alphabet of decision
    locations (None for none), whose non-None values passive facts draw."""
    entity = Entity("thing", ("thing",))
    m = rng.randint(1, max_steps)
    slots = {}
    for t in range(1, m + 1):
        decisions = []
        for _ in range(rng.choice([0, 0, 1, 1, 1, 2])):
            decisions.append(_random_decision(rng, t, entity, locations))
        if decisions:
            slots[t] = decisions
    passive = []
    for t in range(1, m + 1):
        if rng.random() < 0.2:
            loc = rng.choice([l for l in locations if l is not None])
            passive.append(
                PassiveLocationFact(
                    step_index=t,
                    holder=ArgRef("thing", None, "N0"),
                    location=ArgRef(loc, None, "N1"),
                )
            )
    return EntityTimeline(num_steps=m, slots=slots, passive=passive)


def _random_decision(rng: random.Random, t: int, entity: Entity, locations: list) -> LocalDecision:
    kind = rng.choice([Action.CREATE, Action.DESTROY, Action.MOVE])
    if kind is Action.CREATE:
        action = StepAction(Action.CREATE, to_loc=rng.choice(locations))
    elif kind is Action.DESTROY:
        action = StepAction(Action.DESTROY, from_loc=rng.choice(locations))
    else:
        action = StepAction(
            Action.MOVE, from_loc=rng.choice(locations), to_loc=rng.choice(locations)
        )
    return LocalDecision(entity=entity, action=action, rule="generated", frame_node=f"V{t}")

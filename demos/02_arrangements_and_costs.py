"""Arrangements: solve one optimization per class instead of one per sequence.

Loads the restricted-authorization purchase-order fixture (only u1 may
create the order and the payment, the separation-of-duty between them is
released once the goods-received note is signed) and walks through the
analysis: its records list, per xor-free instance, each arrangement with
its class size and one minimum-cost plan.
"""

from pathlib import Path

from wfsat import analyze, load_schema

fixture = Path(__file__).parent.parent / "tests" / "fixtures" / "purchase_order_restricted.json"
schema = load_schema(fixture)

owner = None
for record in analyze(schema).records:
    arrangement, solution = record.arrangement, record.solution
    if arrangement.owner is not owner:
        owner = arrangement.owner
        print(f"instance {owner.index} ({dict(owner.choices)}):")
    slots = " | ".join("{" + ", ".join(slot) + "}" for slot in arrangement.slots)
    releases = ", ".join(arrangement.release_order)
    print(f"  [{slots}] between releases ({releases})")
    print(
        f"    {record.count} sequence(s), min cost {solution.total} "
        f"(constraints {solution.constraint_weight} + authorization {solution.authorization_weight})"
    )
    print(f"    witness plan: {solution.plan}")

print(
    "\nThe two costly arrangements are exactly those executing the payment "
    "before the release point: the creator of the order must then also "
    "create the payment, breaking their separation of duty (weight 5)."
)

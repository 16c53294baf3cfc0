"""Write one benchmark input: a heavy-tailed interaction file.

Usage::

    python bench/gen_input.py OUT_TSV NUM_USERS NUM_ITEMS NUM_INTERACTIONS \
        USER_EXPONENT ITEM_EXPONENT SEED

The graph comes from ``topocf.synthetic.heavy_tailed_graph`` and is written
as ``user<TAB>item`` token lines, the format ``topocf`` ingests.
"""

import sys

from topocf.graph import write_interactions
from topocf.synthetic import heavy_tailed_graph


def main(argv):
    out, users, items, interactions, user_exp, item_exp, seed = argv
    g = heavy_tailed_graph(num_users=int(users), num_items=int(items),
                           num_interactions=int(interactions),
                           user_exponent=float(user_exp),
                           item_exponent=float(item_exp), seed=int(seed))
    write_interactions(g, out)


if __name__ == "__main__":
    main(sys.argv[1:])

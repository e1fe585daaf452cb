"""spark-submit entrypoint: build one table from ``repro.tables`` and print it.

Run as e.g.::

    spark-submit jobs/run_table.py 1

or plain ``python jobs/run_table.py 1`` (local mode). See DESIGN.md's
table index and EXPERIMENTS.md.
"""
import sys

import pandas as pd
from pyspark.sql import SparkSession

from repro import tables

# Table number -> (Spark app name, printed title).
TABLES = {
    1: ("table1_insertion_only", "insertion-only space & approximation vs c (Thm 3.2)"),
    2: ("table2_success_prob", "success probability vs the 1-1/n bound (Lemma 3.1/Thm 3.2)"),
    3: ("table3_insertion_deletion", "insertion-deletion space & strategies vs c (Thm 5.4)"),
    4: ("table4_l0_sampler", "l0-sampler quality (substrate of Alg. 3)"),
    5: ("table5_lower_bounds", "lower-bound reductions run constructively (Thms 4.1/4.8/6.4)"),
    6: ("table6_star_detection", "Star Detection (Cors 3.3/5.5)"),
    7: ("table7_witness_apps", "frequent elements with witnesses: applications"),
}


def main(argv: list[str]) -> None:
    if len(argv) != 2 or not argv[1].isdigit() or int(argv[1]) not in TABLES:
        sys.exit(f"usage: {argv[0]} N   (N in {sorted(TABLES)})")
    n = int(argv[1])
    app, title = TABLES[n]
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        # PySpark's call-site capture for DataFrame errors imports IPython
        # into the driver (about 26 MiB) on the first Column operator.
        .config("spark.python.sql.dataFrameDebugging.enabled", "false")
        .getOrCreate()
    )
    df = getattr(tables, f"table{n}")(spark)
    pd.set_option("display.width", 200)
    print(f"\n=== Table {n} - {title} ===")
    print(df.to_string(index=False))
    spark.stop()


if __name__ == "__main__":
    main(sys.argv)

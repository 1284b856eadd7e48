"""Set-up of a method that needs no regressors: load and date-annotate every topic.

    PYTHONPATH=src python3 bench/load_annotate.py DATASET_DIR
"""

import sys

from adaptls import corpus, temporal


def setup(dataset_dir) -> None:
    for topic in corpus.load_dataset(dataset_dir):
        temporal.annotate_topic(topic)


if __name__ == "__main__":
    setup(sys.argv[1])

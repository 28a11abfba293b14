"""Expert-partitioned FFN layers with learned contextual sparsity.

Pipeline: train a tiny dense byte-level LM, partition each FFN's intermediate
neurons into equal-size experts (balanced k-means on gate-projection columns,
or on up-projection columns when the FFN has no gate), attach sigmoid
threshold routers, train routers and model jointly in soft mode under an
efficiency + separability penalty, then freeze routers and adapt the model
to discrete selection. Discrete selection runs each call over the union of
the experts its rows selected, zeroing unselected (token, expert) pairs: over
packed slabs without a graph, and as one graph op while the model adapts. On
CPU it does not yet beat the dense FFN on wall time.
"""

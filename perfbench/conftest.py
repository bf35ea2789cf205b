import bootstrap

bootstrap.use_source_tree()
